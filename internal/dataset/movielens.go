package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadMovieLensRatings parses the MovieLens 1M ratings format,
// one rating per line:
//
//	UserID::MovieID::Rating::Timestamp
//
// and returns the Store FromRatings builds from them. Blank lines are
// skipped; any malformed line aborts the load with an error naming the
// line number, because a silently truncated dataset would invalidate
// every experiment built on top of it.
func LoadMovieLensRatings(r io.Reader) (*Store, error) {
	var recs []Rating
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rating, err := parseRatingLine(line)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		if err := checkValue(rating); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		recs = append(recs, rating)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading ratings: %w", err)
	}
	return FromRatings(recs)
}

func parseRatingLine(line string) (Rating, error) {
	parts := strings.Split(line, "::")
	if len(parts) != 4 {
		return Rating{}, fmt.Errorf("expected 4 '::'-separated fields, got %d", len(parts))
	}
	user, err := strconv.Atoi(parts[0])
	if err != nil {
		return Rating{}, fmt.Errorf("bad user id %q: %w", parts[0], err)
	}
	item, err := strconv.Atoi(parts[1])
	if err != nil {
		return Rating{}, fmt.Errorf("bad item id %q: %w", parts[1], err)
	}
	val, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return Rating{}, fmt.Errorf("bad rating %q: %w", parts[2], err)
	}
	ts, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil {
		return Rating{}, fmt.Errorf("bad timestamp %q: %w", parts[3], err)
	}
	return Rating{User: UserID(user), Item: ItemID(item), Value: val, Time: ts}, nil
}

// WriteMovieLensRatings writes the store in the MovieLens "::" format,
// user-major and item-sorted within each user, so a synthetic dataset
// can be persisted and reloaded byte-identically.
func WriteMovieLensRatings(w io.Writer, s *Store) error {
	bw := bufio.NewWriter(w)
	for _, u := range s.Users() {
		for _, r := range s.ByUser(u) {
			// MovieLens 1M ratings are integers; keep the general
			// float form for synthetic data with non-integer values.
			var valStr string
			if r.Value == float64(int64(r.Value)) {
				valStr = strconv.FormatInt(int64(r.Value), 10)
			} else {
				valStr = strconv.FormatFloat(r.Value, 'g', -1, 64)
			}
			if _, err := fmt.Fprintf(bw, "%d::%d::%s::%d\n", r.User, r.Item, valStr, r.Time); err != nil {
				return fmt.Errorf("dataset: writing ratings: %w", err)
			}
		}
	}
	return bw.Flush()
}

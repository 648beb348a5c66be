package social

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// WriteFriendships emits the friendship edge list as CSV with a
// header: user_a,user_b (each undirected edge once, a < b).
func WriteFriendships(w io.Writer, nw *Network) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "user_a,user_b"); err != nil {
		return fmt.Errorf("social: writing friendships: %w", err)
	}
	for u, fs := range nw.friends {
		for _, v := range fs {
			if int(v) > u {
				if _, err := fmt.Fprintf(bw, "%d,%d\n", u, v); err != nil {
					return fmt.Errorf("social: writing friendships: %w", err)
				}
			}
		}
	}
	return bw.Flush()
}

// WritePageLikes emits the like event log as CSV with a header:
// user,category,timestamp, time-ordered per user.
func WritePageLikes(w io.Writer, nw *Network) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "user,category,timestamp"); err != nil {
		return fmt.Errorf("social: writing likes: %w", err)
	}
	for u := 0; u < nw.NumUsers(); u++ {
		for _, l := range nw.Likes(dataset.UserID(u)) {
			if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", l.User, l.Category, l.Time); err != nil {
				return fmt.Errorf("social: writing likes: %w", err)
			}
		}
	}
	return bw.Flush()
}

// LoadNetwork reconstructs a Network of numUsers from the two CSV
// streams written by WriteFriendships and WritePageLikes. Either
// reader may be nil to skip that component.
func LoadNetwork(numUsers int, friendships, likes io.Reader) (*Network, error) {
	var edges [][2]dataset.UserID
	var ls []PageLike
	if friendships != nil {
		if err := readCSV(friendships, 2, "friendships", func(fields []int64) error {
			u, v := dataset.UserID(fields[0]), dataset.UserID(fields[1])
			if int(u) < 0 || int(u) >= numUsers || int(v) < 0 || int(v) >= numUsers || u == v {
				return fmt.Errorf("bad edge (%d,%d)", u, v)
			}
			edges = append(edges, [2]dataset.UserID{u, v})
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if likes != nil {
		if err := readCSV(likes, 3, "pagelikes", func(fields []int64) error {
			u := dataset.UserID(fields[0])
			cat := int(fields[1])
			if int(u) < 0 || int(u) >= numUsers {
				return fmt.Errorf("bad user %d", u)
			}
			if cat < 0 || cat >= NumFacebookCategories {
				return fmt.Errorf("bad category %d", cat)
			}
			ls = append(ls, PageLike{User: u, Category: cat, Time: fields[2]})
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return NewNetwork(numUsers, edges, ls), nil
}

// readCSV parses simple integer CSV rows with an optional header.
func readCSV(r io.Reader, want int, label string, row func([]int64) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	fields := make([]int64, want)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != want {
			return fmt.Errorf("social: %s line %d: expected %d fields, got %d", label, lineNo, want, len(parts))
		}
		ok := true
		for i, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				if lineNo == 1 {
					ok = false // header row
					break
				}
				return fmt.Errorf("social: %s line %d: bad field %q: %w", label, lineNo, p, err)
			}
			fields[i] = v
		}
		if !ok {
			continue
		}
		if err := row(fields); err != nil {
			return fmt.Errorf("social: %s line %d: %w", label, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("social: reading %s: %w", label, err)
	}
	return nil
}

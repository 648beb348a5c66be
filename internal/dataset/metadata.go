package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// MovieLensGenres are the 18 genre labels of the MovieLens 1M dump, in
// its canonical order. The synthetic generator's latent ItemGenre
// indexes this slice when Genres == 18.
var MovieLensGenres = []string{
	"Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
	"Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
	"Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
}

// Movie is one movies.dat row.
type Movie struct {
	ID    ItemID
	Title string
	// Genres are label strings; the 1M dump pipe-separates them.
	Genres []string
}

// UserGender matches the 1M dump's encoding.
type UserGender string

const (
	GenderFemale UserGender = "F"
	GenderMale   UserGender = "M"
)

// MovieLensAgeBrackets are the seven age codes of the 1M dump.
var MovieLensAgeBrackets = []int{1, 18, 25, 35, 45, 50, 56}

// NumMovieLensOccupations is the number of occupation codes (0..20).
const NumMovieLensOccupations = 21

// User is one users.dat row.
type User struct {
	ID         UserID
	Gender     UserGender
	Age        int
	Occupation int
	ZipCode    string
}

// Metadata bundles the demographic/item side tables of a MovieLens
// dump. The group recommendation pipeline itself only needs ratings;
// metadata feeds richer static-affinity definitions (e.g. same age
// bracket) and human-readable output.
type Metadata struct {
	movies map[ItemID]Movie
	users  map[UserID]User
}

// NewMetadata returns an empty metadata set.
func NewMetadata() *Metadata {
	return &Metadata{
		movies: make(map[ItemID]Movie),
		users:  make(map[UserID]User),
	}
}

// AddMovie registers a movie, overwriting any previous entry.
func (md *Metadata) AddMovie(m Movie) { md.movies[m.ID] = m }

// AddUser registers a user, overwriting any previous entry.
func (md *Metadata) AddUser(u User) { md.users[u.ID] = u }

// Movie looks up a movie.
func (md *Metadata) Movie(id ItemID) (Movie, bool) {
	m, ok := md.movies[id]
	return m, ok
}

// User looks up a user.
func (md *Metadata) User(id UserID) (User, bool) {
	u, ok := md.users[id]
	return u, ok
}

// NumMovies returns the registered movie count.
func (md *Metadata) NumMovies() int { return len(md.movies) }

// NumUsers returns the registered user count.
func (md *Metadata) NumUsers() int { return len(md.users) }

// Title returns the movie title or a synthetic placeholder.
func (md *Metadata) Title(id ItemID) string {
	if m, ok := md.movies[id]; ok {
		return m.Title
	}
	return fmt.Sprintf("Movie %d", id)
}

// SameAgeBracket reports whether both users exist and share an age
// code — one of the paper's examples of a stable static-affinity
// ingredient ("birthplace, age, and education").
func (md *Metadata) SameAgeBracket(a, b UserID) bool {
	ua, oka := md.users[a]
	ub, okb := md.users[b]
	return oka && okb && ua.Age == ub.Age
}

// DemographicAffinity is a metadata-based static-affinity pair score,
// the shape of the pair function an affinity.StaticSource binds: 1 point
// per shared attribute (age bracket, gender, occupation). It can
// replace or augment the common-friends static affinity where no
// social graph exists.
func (md *Metadata) DemographicAffinity(a, b UserID) float64 {
	ua, oka := md.users[a]
	ub, okb := md.users[b]
	if !oka || !okb {
		return 0
	}
	var s float64
	if ua.Age == ub.Age {
		s++
	}
	if ua.Gender == ub.Gender {
		s++
	}
	if ua.Occupation == ub.Occupation {
		s++
	}
	return s
}

// GenerateMetadata synthesizes movies.dat/users.dat-style side tables
// consistent with a generated rating world: each item's genre label
// comes from its latent genre, and users get plausible demographic
// codes. Deterministic for a fixed seed.
func GenerateMetadata(sy *Synth, seed int64) *Metadata {
	rng := rand.New(rand.NewSource(seed))
	md := NewMetadata()
	for it := 0; it < sy.Config.Items; it++ {
		genreIdx := sy.ItemGenre[it]
		label := fmt.Sprintf("Genre-%d", genreIdx)
		if genreIdx < len(MovieLensGenres) {
			label = MovieLensGenres[genreIdx]
		}
		genres := []string{label}
		// A third of movies carry a secondary genre, like the dump.
		if rng.Float64() < 0.33 {
			second := rng.Intn(sy.Config.Genres)
			if second != genreIdx {
				l2 := fmt.Sprintf("Genre-%d", second)
				if second < len(MovieLensGenres) {
					l2 = MovieLensGenres[second]
				}
				genres = append(genres, l2)
			}
		}
		year := 1930 + rng.Intn(71)
		md.AddMovie(Movie{
			ID:     ItemID(it),
			Title:  fmt.Sprintf("Synthetic Feature %d (%d)", it, year),
			Genres: genres,
		})
	}
	for u := 0; u < sy.Config.Users; u++ {
		gender := GenderMale
		if rng.Float64() < 0.28 { // the 1M dump is ~28% female
			gender = GenderFemale
		}
		md.AddUser(User{
			ID:         UserID(u),
			Gender:     gender,
			Age:        MovieLensAgeBrackets[rng.Intn(len(MovieLensAgeBrackets))],
			Occupation: rng.Intn(NumMovieLensOccupations),
			ZipCode:    fmt.Sprintf("%05d", rng.Intn(100000)),
		})
	}
	return md
}

// LoadMovies parses the movies.dat format: MovieID::Title::Genre|Genre.
func LoadMovies(r io.Reader) (*Metadata, error) {
	md := NewMetadata()
	if err := md.ReadMovies(r); err != nil {
		return nil, err
	}
	return md, nil
}

// ReadMovies merges movies.dat rows into the metadata set.
func (md *Metadata) ReadMovies(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, "::", 3)
		if len(parts) != 3 {
			return fmt.Errorf("dataset: movies line %d: expected 3 fields, got %d", line, len(parts))
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil {
			return fmt.Errorf("dataset: movies line %d: bad id %q: %w", line, parts[0], err)
		}
		md.AddMovie(Movie{
			ID:     ItemID(id),
			Title:  parts[1],
			Genres: strings.Split(parts[2], "|"),
		})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dataset: reading movies: %w", err)
	}
	return nil
}

// ReadUsers merges users.dat rows
// (UserID::Gender::Age::Occupation::Zip) into the metadata set.
func (md *Metadata) ReadUsers(r io.Reader) error {
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, "::")
		if len(parts) != 5 {
			return fmt.Errorf("dataset: users line %d: expected 5 fields, got %d", line, len(parts))
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil {
			return fmt.Errorf("dataset: users line %d: bad id: %w", line, err)
		}
		if parts[1] != "F" && parts[1] != "M" {
			return fmt.Errorf("dataset: users line %d: bad gender %q", line, parts[1])
		}
		age, err := strconv.Atoi(parts[2])
		if err != nil {
			return fmt.Errorf("dataset: users line %d: bad age: %w", line, err)
		}
		occ, err := strconv.Atoi(parts[3])
		if err != nil {
			return fmt.Errorf("dataset: users line %d: bad occupation: %w", line, err)
		}
		md.AddUser(User{
			ID:         UserID(id),
			Gender:     UserGender(parts[1]),
			Age:        age,
			Occupation: occ,
			ZipCode:    parts[4],
		})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dataset: reading users: %w", err)
	}
	return nil
}

// WriteMovies emits movies.dat rows sorted by id.
func (md *Metadata) WriteMovies(w io.Writer) error {
	bw := bufio.NewWriter(w)
	ids := make([]ItemID, 0, len(md.movies))
	for id := range md.movies {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m := md.movies[id]
		if _, err := fmt.Fprintf(bw, "%d::%s::%s\n", m.ID, m.Title, strings.Join(m.Genres, "|")); err != nil {
			return fmt.Errorf("dataset: writing movies: %w", err)
		}
	}
	return bw.Flush()
}

// WriteUsers emits users.dat rows sorted by id.
func (md *Metadata) WriteUsers(w io.Writer) error {
	bw := bufio.NewWriter(w)
	ids := make([]UserID, 0, len(md.users))
	for id := range md.users {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		u := md.users[id]
		if _, err := fmt.Fprintf(bw, "%d::%s::%d::%d::%s\n", u.ID, u.Gender, u.Age, u.Occupation, u.ZipCode); err != nil {
			return fmt.Errorf("dataset: writing users: %w", err)
		}
	}
	return bw.Flush()
}

// Package lib declares one top-level name per case the gate must tell
// apart.
package lib

// Used is called from cmd/app.
func Used() { internal() }

// Internal is reached only through a bare identifier in this package.
func Internal() {}

func internal() { Internal() }

// Dead has no reference at all.
func Dead() {}

// TestOnly is called only from lib_test.go.
func TestOnly() {}

// Min shares its name with math.Min, which cmd/app calls.
func Min(a, b float64) float64 { return a }

// Kept has no reference but is allowlisted.
func Kept() {}

// Shape is the interface cmd/app calls Area through.
type Shape interface{ Area() float64 }

// Square reaches Area only through Shape.
type Square struct{ Side float64 }

// Area is never called on a Square directly.
func (s Square) Area() float64 { return s.Side * s.Side }

// Set has a method that shares its name with strings.Contains.
type Set map[string]bool

// Contains is never called; cmd/app calls strings.Contains.
func (s Set) Contains(k string) bool { return s[k] }

// Grid has a Pos method that cmd/app calls.
type Grid struct{}

// Pos is called on a Grid.
func (Grid) Pos() int { return 0 }

// Line shares the method name Pos with Grid.
type Line struct{}

// Pos is never called on a Line; cmd/app calls Grid.Pos.
func (Line) Pos() int { return 1 }

// String is called only by fmt, through fmt.Stringer.
func (Line) String() string { return "line" }

// dead is unexported and has no reference at all.
func dead() {}

// testOnly is unexported and called only from lib_test.go.
func testOnly() {}

package main

import (
	"fmt"
	"math"
	"strings"

	"fixture/internal/lib"
)

func main() {
	lib.Used()
	var s lib.Shape = lib.Square{Side: 2}
	set := lib.Set{}
	fmt.Println(s.Area(), math.Min(1, 2), strings.Contains("ab", "a"), len(set))
	fmt.Println(lib.Grid{}.Pos(), lib.Line{})
}

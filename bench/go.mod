// The benchmark is a module of its own so that `go build ./...` and
// `go test ./...` at the repository root never compile it; the replace
// directive points back at the repository it measures.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../

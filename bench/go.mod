// The benchmark is a module of its own so that it builds from its own
// build file; the import path keeps the parent's prefix, which is what
// lets it import the parent's internal/... packages through the replace.
module github.com/voxset/voxset/bench

go 1.22

require github.com/voxset/voxset v0.0.0

replace github.com/voxset/voxset => ../

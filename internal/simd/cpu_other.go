//go:build !amd64

package simd

// Non-amd64 builds have no vector backend yet (NEON is the documented next
// step, DESIGN.md §11); the scalar stream is the only entry in the table.
var hasAVX2FMA, hasAVX512 = false, false

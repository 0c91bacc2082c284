//go:build !race

package gw

const raceEnabled = false

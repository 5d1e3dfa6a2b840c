//go:build !race

package qasom_test

const raceEnabled = false

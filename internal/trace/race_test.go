//go:build race

package trace

func init() { raceEnabled = true }

//go:build race

package qos

func init() { raceEnabled = true }

//go:build race

package touch

func init() { raceEnabled = true }

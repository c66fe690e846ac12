//go:build race

package client_test

func init() { raceEnabled = true }

//go:build race

package p6lite

func init() { raceDetector = true }

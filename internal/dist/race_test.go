//go:build race

package dist

func init() { raceDetector = true }

package tune

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseBackoff parses the -backoff CLI grammar: a comma-separated
// key=value list over
//
//	spin=N      Gosched rounds before the first sleep (default 64)
//	min=DUR     first sleep duration (default 10µs)
//	max=DUR     sleep cap (default 1.28ms)
//	park=N      sleep rounds before parking; 0 = never park (default 0)
//
// e.g. "spin=32,min=5us,max=2ms,park=8". The empty string yields the
// legacy default policy. Errors name the offending key so the CLIs
// can fail fast, -gogc style.
func ParseBackoff(spec string) (*Backoff, error) {
	spin, parkAfter := DefaultSpin, 0
	min, max := DefaultSleepMin, DefaultSleepMax
	spec = strings.TrimSpace(spec)
	if spec != "" {
		for _, field := range strings.Split(spec, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("backoff spec: %q is not key=value", field)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			switch k {
			case "spin":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("backoff spec: spin=%q (want a positive integer)", v)
				}
				spin = n
			case "park":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("backoff spec: park=%q (want a non-negative integer; 0 disables parking)", v)
				}
				parkAfter = n
			case "min", "max":
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("backoff spec: %s=%q (want a positive duration like 10us or 1ms)", k, v)
				}
				if k == "min" {
					min = d
				} else {
					max = d
				}
			default:
				return nil, fmt.Errorf("backoff spec: unknown key %q (want spin, min, max or park)", k)
			}
		}
	}
	if max < min {
		return nil, fmt.Errorf("backoff spec: max (%s) must be at least min (%s)", max, min)
	}
	return NewBackoff(spin, min, max, parkAfter), nil
}

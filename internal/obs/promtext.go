package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParsePrometheus validates r as Prometheus text exposition format and
// returns the parsed samples keyed by series (metric name plus label set
// in sorted, exposition-escaped form, e.g. `react_foo_bucket{le="1"}`, so
// a key is itself a valid sample prefix). It is deliberately small —
// a grammar checker for CI and tests, not a full scrape client: it
// accepts HELP/TYPE/arbitrary comments, requires every sample line to be
// `name[{labels}] value [timestamp]`, and rejects malformed names,
// unterminated label quoting, and non-numeric values.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	samples := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("line %d: expected value [timestamp], got %q", lineNo, rest)
		}
		v, err := parseValue(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, fields[0], err)
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return nil, fmt.Errorf("line %d: bad timestamp %q", lineNo, fields[1])
			}
		}
		if _, dup := samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// parseSeries splits `name{labels}` off the front of line, returning the
// canonical series key (labels re-rendered in sorted order) and the rest.
func parseSeries(line string) (key, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", "", fmt.Errorf("no value after metric name %q", line)
	}
	name := line[:i]
	if !validName(name, true) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if line[i] != '{' {
		return name, line[i:], nil
	}
	labels, rest, err := parseLabels(line[i+1:])
	if err != nil {
		return "", "", fmt.Errorf("metric %s: %v", name, err)
	}
	var b strings.Builder
	writeSeries(&b, name, labels, "")
	return b.String(), rest, nil
}

// parseLabels consumes `k="v",...}` and returns the map plus the remainder.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label pair missing '=' in %q", s)
		}
		k := strings.TrimSpace(s[:eq])
		if !validName(k, false) {
			return nil, "", fmt.Errorf("invalid label name %q", k)
		}
		s = strings.TrimLeft(s[eq+1:], " \t")
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s value not quoted", k)
		}
		v, rest, err := unquoteLabel(s[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %v", k, err)
		}
		if _, dup := labels[k]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", k)
		}
		labels[k] = v
		s = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("expected ',' or '}' after label %s, got %q", k, s)
	}
}

// unquoteLabel reads a label value up to the closing quote, handling the
// exposition-format escapes \\ \" \n.
func unquoteLabel(s string) (value, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("bad escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

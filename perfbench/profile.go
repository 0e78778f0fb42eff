package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is the runtime/pprof protobuf (profile.proto), read here
// with a minimal decoder so the benchmark needs nothing beyond the standard
// library. Only the fields attribution needs are decoded: each sample's
// leaf location and value, locations' innermost function, function names,
// and the string table.

// modules are the layers CPU samples are attributed to: the repository's
// packages on a cell's path, plus the standard-library layers the service
// spends its time in ("syscall" is the kernel boundary: sockets and
// files). Everything else lands in "other".
var modules = []string{
	"circuit", "core", "buffer", "morphy", "capybara", "ckpt", "mcu", "workload", "harvest", "sim",
	"trace", "scenario", "service", "store", "obs", "explore",
	"runtime", "syscall", "net_http", "encoding_json", "other",
}

// moduleOf maps a profiled function name ("react/internal/circuit.(*Capacitor).Leak",
// "runtime.mallocgc", "net/http.(*conn).serve") to its module.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: the shape list may hold paths
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case !strings.Contains(fn, "."):
		return "runtime" // assembly helpers such as aeshashbody and memeqbody
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" || pkg == "net" || pkg == "os":
		return "syscall"
	case strings.HasPrefix(pkg, "react/internal/"):
		name := strings.TrimPrefix(pkg, "react/internal/")
		for _, m := range modules {
			if m == name {
				return m
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return "other"
}

// cpuShares decodes a gzipped CPU profile and returns each module's share
// of the sampled CPU time by leaf frame, plus the total sampled
// nanoseconds. Every module in modules has an entry.
func cpuShares(gz []byte) (map[string]float64, float64, error) {
	leaf, err := leafValues(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for _, m := range modules {
		shares[m] = 0
	}
	var total float64
	for fn, v := range leaf {
		shares[moduleOf(fn)] += v
		total += v
	}
	for m := range shares {
		shares[m] = ratio(shares[m], total)
	}
	return shares, total, nil
}

// leafValues sums each sample's last value (CPU nanoseconds in a CPU
// profile) by the name of the sample's leaf function.
func leafValues(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location id → innermost function id
		fnName   = map[uint64]int64{}  // function id → string index
		strtab   []string
		topLevel = pb{raw}
	)
	for !topLevel.done() {
		num, wt, err := topLevel.key()
		if err != nil {
			return nil, err
		}
		if wt != 2 {
			if err := topLevel.skip(wt); err != nil {
				return nil, err
			}
			continue
		}
		body, err := topLevel.bytes()
		if err != nil {
			return nil, err
		}
		m := pb{body}
		switch num {
		case 2: // Sample
			var s sample
			var locs []uint64
			var vals []int64
			for !m.done() {
				f, w, err := m.key()
				if err != nil {
					return nil, err
				}
				switch {
				case f == 1 || f == 2:
					xs, err := m.uints(w)
					if err != nil {
						return nil, err
					}
					if f == 1 {
						locs = append(locs, xs...)
					} else {
						for _, x := range xs {
							vals = append(vals, int64(x))
						}
					}
				default:
					if err := m.skip(w); err != nil {
						return nil, err
					}
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				s.loc, s.value = locs[0], vals[len(vals)-1]
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			for !m.done() {
				f, w, err := m.key()
				if err != nil {
					return nil, err
				}
				switch {
				case f == 1 && w == 0:
					if id, err = m.varint(); err != nil {
						return nil, err
					}
				case f == 4 && w == 2 && !seenLine:
					line, err := m.bytes()
					if err != nil {
						return nil, err
					}
					seenLine = true
					if fn, err = firstVarintField(line, 1); err != nil {
						return nil, err
					}
				default:
					if err := m.skip(w); err != nil {
						return nil, err
					}
				}
			}
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			for !m.done() {
				f, w, err := m.key()
				if err != nil {
					return nil, err
				}
				switch {
				case f == 1 && w == 0:
					if id, err = m.varint(); err != nil {
						return nil, err
					}
				case f == 2 && w == 0:
					v, err := m.varint()
					if err != nil {
						return nil, err
					}
					name = int64(v)
				default:
					if err := m.skip(w); err != nil {
						return nil, err
					}
				}
			}
			fnName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(body))
		}
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if si, ok := fnName[locFn[s.loc]]; ok && si >= 0 && int(si) < len(strtab) {
			name = strtab[si]
		}
		out[name] += float64(s.value)
	}
	return out, nil
}

// firstVarintField returns the first varint-typed field num of a message.
func firstVarintField(msg []byte, num int) (uint64, error) {
	m := pb{msg}
	for !m.done() {
		f, w, err := m.key()
		if err != nil {
			return 0, err
		}
		if f == num && w == 0 {
			return m.varint()
		}
		if err := m.skip(w); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pb is a cursor over protobuf wire-format bytes.
type pb struct{ b []byte }

func (p *pb) done() bool { return len(p.b) == 0 }

func (p *pb) varint() (uint64, error) {
	var v uint64
	for i := 0; i < 10; i++ {
		if i >= len(p.b) {
			return 0, errTruncated
		}
		c := p.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			p.b = p.b[i+1:]
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

func (p *pb) key() (num, wireType int, err error) {
	k, err := p.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(k >> 3), int(k & 7), nil
}

func (p *pb) bytes() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)) {
		return nil, errTruncated
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b, nil
}

// uints reads a repeated integer field in either encoding: one varint
// (wire type 0) or a packed run (wire type 2).
func (p *pb) uints(wireType int) ([]uint64, error) {
	switch wireType {
	case 0:
		v, err := p.varint()
		return []uint64{v}, err
	case 2:
		body, err := p.bytes()
		if err != nil {
			return nil, err
		}
		q := pb{body}
		var out []uint64
		for !q.done() {
			v, err := q.varint()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("profile: integer field with wire type %d", wireType)
}

func (p *pb) skip(wireType int) error {
	var n int
	switch wireType {
	case 0:
		_, err := p.varint()
		return err
	case 1:
		n = 8
	case 2:
		_, err := p.bytes()
		return err
	case 5:
		n = 4
	default:
		return fmt.Errorf("profile: unsupported wire type %d", wireType)
	}
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator packages a CPU sample can be attributed to,
// by the package of its leaf frame. Samples in the Go runtime count as
// "runtime"; everything else (the benchmark, barrier schedules, the PCI
// model, the standard library) counts as "other".
var layers = []string{"sim", "topo", "netsim", "myrinet", "elan", "core", "comm", "shard", "runtime", "other"}

const modulePath = "nicbarrier/internal/"

// layerOf maps a pprof function name such as
// "nicbarrier/internal/sim.(*Engine).Step" to its layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if l, ok := strings.CutPrefix(pkg, modulePath); ok {
		for _, name := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"), pkg == "internal/bytealg":
		return "runtime"
	}
	return "other"
}

// packageOf extracts the import path from a qualified function name:
// everything up to the first dot after the last slash, ignoring any
// generic instantiation (whose brackets may hold more slashes).
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// leafCPU decodes a gzipped CPU profile as runtime/pprof writes it and
// sums each sample's CPU nanoseconds under the layer of its leaf frame
// (for inlined code, the innermost function). It reads only the fields
// it needs from the profile.proto wire format.
func leafCPU(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64 // location ID of the leaf frame, 0 when none
		value int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}  // function ID -> string index
		locLeafFn = map[uint64]uint64{} // location ID -> innermost function ID
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []int64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					ids, err := varints(v, b)
					if err == nil && s.leaf == 0 && len(ids) > 0 {
						s.leaf = ids[0]
					}
					return err
				case 2: // value
					vs, err := varints(v, b)
					for _, x := range vs {
						values = append(values, int64(x))
					}
					return err
				}
				return nil
			})
			// CPU profiles carry [samples/count, cpu/nanoseconds].
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost frame
					if fn == 0 {
						return fields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locLeafFn[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := ""
		if idx, ok := funcName[locLeafFn[s.leaf]]; ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		out[layerOf(name)] += s.value
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values, whether it was
// encoded as one varint (body nil) or packed into a length-delimited
// body.
func varints(v uint64, body []byte) ([]uint64, error) {
	if body == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		body = body[n:]
	}
	return out, nil
}

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

// The module is stdlib-only, so this file decodes the few profile.proto
// fields that runtime/pprof's CPU profiles need: samples (location ids,
// leaf first, and values), locations (function ids, innermost inlined
// frame first), functions (name) and the string table.

var errProto = errors.New("malformed profile")

// forEachField calls fn for each field of protobuf message b: v holds a
// varint field's value and data a length-delimited field's bytes (non-nil).
// Fixed-width fields are skipped; the fields read here have none.
func forEachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data) or not (v).
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// layerSamples decodes a gzipped CPU profile and returns its sample count
// per layer (see layerOf).
func layerSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]uint64{}
	)
	err = forEachField(raw, func(field int, _ uint64, data []byte) error {
		if data == nil {
			return nil
		}
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := forEachField(data, func(f int, v uint64, d []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, v, d)
				case 2:
					vals, err = appendVarints(vals, v, d)
				}
				return err
			})
			if err != nil || len(vals) == 0 {
				return errProto
			}
			s.count = int64(vals[0])
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forEachField(data, func(f int, v uint64, d []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && d != nil: // Line
					return forEachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := forEachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[layerOf(stack)] += s.count
	}
	return out, nil
}

const internalPrefix = "clustersim/internal/"

// routeFuncs name the cluster controller's routing code (frame hand-off,
// arrival time, fault decision, delivery and straggler classification); the
// rest of package cluster is the quantum walk.
var routeFuncs = []string{"sendFrame", "arrivalTime", "routeFlight", "routeBatch", "emitPacket", "deliver", "classify"}

// layerOf charges one CPU sample, given its stack leaf first, to a layer:
// "runtime" when the garbage collector is anywhere on the stack; otherwise
// the innermost clustersim/internal/<module> frame, with cluster split into
// "cluster.route" and "cluster.walk", so stdlib frames such as math.Exp
// inherit their caller's module; "other" when the innermost non-stdlib frame
// is the benchmark itself; "runtime" when no frame is the program's.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "runtime"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		mod := rest[:strings.IndexAny(rest+".", "./")]
		if mod != "cluster" {
			return mod
		}
		method := rest[len("cluster."):]
		if i := strings.Index(method, ")."); i >= 0 {
			method = method[i+2:]
		}
		for _, r := range routeFuncs {
			if strings.HasPrefix(method, r) {
				return "cluster.route"
			}
		}
		return "cluster.walk"
	}
	return "runtime"
}

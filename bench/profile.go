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

// layers are the repro/internal packages whose CPU self-time is
// reported on its own. Samples in other repro packages go to "other";
// samples with no repro frame at all (GC, scheduler) go to "runtime".
var layers = []string{
	"sim", "fabric", "transport", "multipath", "collective",
	"pagetable", "iommu", "pvdma", "rund", "mem", "vnet", "churn",
	"rnic", "pcie", "trace", "metrics",
}

// selfLayers are the buckets every CPU sample is charged to.
var selfLayers = append(append([]string(nil), layers...), "other", "runtime")

const reproPrefix = "repro/internal/"

// layerOf maps a profiled function name to its layer, or "" when the
// function is outside repro/internal.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, reproPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// profileData is the part of a pprof profile attribution needs.
type profileData struct {
	valueIndex int                 // index of the cpu/nanoseconds value
	samples    []profileSample     // leaf-first location IDs and values
	locations  map[uint64][]uint64 // location ID → function IDs, innermost first
	functions  map[uint64]int64    // function ID → name string index
	strings    []string
}

type profileSample struct {
	locations []uint64
	values    []int64
}

// layerSelf decodes a gzipped CPU profile and charges each sample to
// the innermost repro/internal/<pkg> frame on its stack, so map, sort
// and allocation time lands on the layer that called it. The result is
// seconds per layer; the values sum to the profile's total CPU time.
func layerSelf(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if p.valueIndex >= len(s.values) {
			continue
		}
		out[p.sampleLayer(s)] += float64(s.values[p.valueIndex]) / 1e9
	}
	return out, nil
}

func (p *profileData) sampleLayer(s profileSample) string {
	for _, loc := range s.locations {
		for _, fid := range p.locations[loc] {
			idx, ok := p.functions[fid]
			if !ok || idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			if l := layerOf(p.strings[idx]); l != "" {
				return l
			}
		}
	}
	return "runtime"
}

// parseProfile reads the fields of profile.proto that attribution uses:
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6). An empty input (no samples were taken) is an empty
// profile.
func parseProfile(gz []byte) (*profileData, error) {
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	if len(gz) == 0 {
		return p, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var sampleTypes [][2]int64 // (type, unit) string indexes
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			var vt [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2:
			var s profileSample
			err := eachField(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locations, v, pb)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, v, pb); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU profile's values are (samples/count, cpu/nanoseconds).
	p.valueIndex = len(sampleTypes) - 1
	for i, vt := range sampleTypes {
		if vt[0] >= 0 && int(vt[0]) < len(p.strings) && p.strings[vt[0]] == "cpu" {
			p.valueIndex = i
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none that
// attribution needs.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values: one varint
// (unpacked encoding) or a packed run of them.
func appendUints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

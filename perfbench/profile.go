package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run takes a CPU profile and attributes every sample to the
// package of its leaf frame: the function that was on the CPU. The
// profile is decoded here from its wire format (gzipped profile.proto)
// with a minimal protobuf reader, so the benchmark needs nothing beyond
// the standard library.

// cpuLayers are the rows of the CPU table, in print order. Every sample
// lands in exactly one, so the shares sum to 1.
var cpuLayers = []string{
	"sim", "sched", "kernel", "netsim", "rc", "httpsim", "workload",
	"telemetry", "trace", "alert", "rcruntime",
	"net_http", "syscall", "gc", "malloc", "runtime", "perfbench", "loadgen", "other",
}

// loadgenLabel marks the goroutines of the live workload's load
// generators (pprof.Do with this key and value). Their samples form the
// "loadgen" row whatever their leaf frame: the client side of the
// loopback connection, and the generator's wait for the next due time,
// are the benchmark's cost, not the server's.
const loadgenLabel = "loadgen"

// internalLayers are the repository packages with a row of their own.
var internalLayers = map[string]bool{
	"sim": true, "sched": true, "kernel": true, "netsim": true, "rc": true,
	"httpsim": true, "workload": true, "telemetry": true, "trace": true,
	"alert": true, "rcruntime": true,
}

// gcPrefixes and mallocPrefixes split the runtime package by leaf function
// name: garbage collection and sweeping, and allocation. Everything else
// in the runtime (scheduler, timers, futexes) stays under "runtime".
var gcPrefixes = []string{
	"runtime.gc", "runtime.scan", "runtime.mark", "runtime.greyobject",
	"runtime.findObject", "runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*gcBits)",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*mheap).reclaim",
	"runtime.wbBuf", "runtime.(*wbBuf)", "runtime.bulkBarrier", "runtime.typePointers",
	"runtime.(*mspan).typePointers", "runtime.spanOf", "runtime.pageIndexOf",
	"runtime.heapBitsForAddr", "runtime.(*mspan).heapBits", "runtime.(*gcCPULimiterState)",
	"runtime.(*mheap).freeSpan", "runtime.(*pageAlloc).scavenge", "runtime.(*scavengerState)",
	"runtime.markBits", "runtime.(*markBits)", "runtime.(*mspan).markBitsForIndex",
}

var mallocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mheap).alloc", "runtime.(*mheap).allocSpan", "runtime.nextFreeFast",
	"runtime.(*mspan).nextFreeIndex", "runtime.heapSetType", "runtime.(*mspan).initHeapBits",
	"runtime.memclrNoHeapPointers", "runtime.roundupsize", "runtime.(*pageAlloc).alloc",
	"runtime.rawstring", "runtime.rawbyteslice", "runtime.concatstring", "runtime.slicebytetostring",
	"runtime.convT", "runtime.mapassign", "runtime.(*mspan).refillAllocCache",
}

// pkgOf returns the import path of a Go symbol name such as
// "rescon/internal/sched.(*Scheduler).Pick" or "net/http.(*conn).serve".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf maps a leaf function name to its CPU-table row.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	if rest, ok := strings.CutPrefix(pkg, "rescon/internal/"); ok {
		if internalLayers[rest] {
			return rest
		}
		return "other"
	}
	switch pkg {
	case "main":
		return "perfbench"
	case "net/http", "net/textproto", "net/http/internal", "net/http/internal/ascii":
		return "net_http"
	case "syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/poll":
		return "syscall"
	case "runtime":
		switch {
		case hasAnyPrefix(fn, gcPrefixes):
			return "gc"
		case hasAnyPrefix(fn, mallocPrefixes):
			return "malloc"
		}
		return "runtime"
	}
	return "other"
}

// leafShares decodes CPU profiles and returns each layer's share of their
// pooled samples (every row of cpuLayers present, summing to 1) and the
// sample count.
func leafShares(profs ...[]byte) (map[string]float64, int, error) {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	total := 0
	for _, prof := range profs {
		leaves, err := leafFunctions(prof)
		if err != nil {
			return nil, 0, err
		}
		for fn, n := range leaves {
			layer := layerOf(fn)
			if fn == loadgenLabel {
				layer = loadgenLabel
			}
			shares[layer] += float64(n)
			total += n
		}
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= float64(total)
		}
	}
	return shares, total, nil
}

// leafFunctions returns, per leaf function name, the number of profile
// samples taken while it was on the CPU. Samples whose goroutine carries
// the label role=loadgen are counted under the name loadgenLabel instead.
func leafFunctions(prof []byte) (map[string]int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locLeafFn = map[uint64]uint64{} // location id -> leaf function id
		samples   []pbSample
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			s, err := decodeSample(b)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			id, fn, err := decodeLocation(b)
			if err != nil {
				return err
			}
			locLeafFn[id] = fn
		case 5: // function
			id, name, err := decodeFunction(b)
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := "(unknown)"
		if s.loadgen(strs) {
			name = loadgenLabel
		} else if fn, ok := locLeafFn[s.locs[0]]; ok {
			if si, ok := funcName[fn]; ok && si >= 0 && int(si) < len(strs) {
				name = strs[si]
			}
		}
		out[name] += int(s.values[0])
	}
	return out, nil
}

type pbSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // string-table indexes of key and value
}

func (s pbSample) loadgen(strs []string) bool {
	for _, l := range s.labels {
		if l[0] >= 0 && int(l[0]) < len(strs) && l[1] >= 0 && int(l[1]) < len(strs) &&
			strs[l[0]] == "role" && strs[l[1]] == loadgenLabel {
			return true
		}
	}
	return false
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	err := pbFields(b, func(field, wire int, v uint64, p []byte) error {
		switch field {
		case 1:
			return pbUints(wire, v, p, func(u uint64) { s.locs = append(s.locs, u) })
		case 2:
			return pbUints(wire, v, p, func(u uint64) { s.values = append(s.values, int64(u)) })
		case 3:
			var kv [2]int64
			err := pbFields(p, func(f, w int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					kv[f-1] = int64(v)
				}
				return nil
			})
			s.labels = append(s.labels, kv)
			return err
		}
		return nil
	})
	return s, err
}

// decodeLocation returns a location's id and the function id of its first
// line: the innermost frame when calls were inlined into this location.
func decodeLocation(b []byte) (id, leafFn uint64, err error) {
	first := true
	err = pbFields(b, func(field, wire int, v uint64, p []byte) error {
		switch field {
		case 1:
			id = v
		case 4:
			if !first {
				return nil
			}
			first = false
			return pbFields(p, func(f, w int, v uint64, _ []byte) error {
				if f == 1 {
					leafFn = v
				}
				return nil
			})
		}
		return nil
	})
	return id, leafFn, err
}

func decodeFunction(b []byte) (id uint64, name int64, err error) {
	err = pbFields(b, func(field, wire int, v uint64, p []byte) error {
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	return id, name, err
}

var errTruncated = errors.New("profile: truncated protobuf")

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number, wire type, and either the varint value or the
// length-delimited bytes.
func pbFields(b []byte, fn func(field, wire int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var p []byte
		switch wire {
		case 0:
			v, n, err = pbVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			p, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, p); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated integer field in either encoding: one varint
// per field occurrence, or a packed run.
func pbUints(wire int, v uint64, p []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(p) > 0 {
		u, n, err := pbVarint(p)
		if err != nil {
			return err
		}
		add(u)
		p = p[n:]
	}
	return nil
}

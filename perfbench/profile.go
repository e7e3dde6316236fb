package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a Go CPU profile (gzip-compressed pprof protobuf, as
// runtime/pprof writes it) into self time per simulator layer. Only the
// handful of message fields the grouping needs are decoded, so the
// benchmark needs nothing beyond the standard library.

// selfSamples decodes a CPU profile and returns the sample count of each
// leaf function: the innermost frame of every sample, inlined frames
// included, so the count is that function's self time.
func selfSamples(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return selfSamplesRaw(raw)
}

// pprof field numbers (github.com/google/pprof/proto/profile.proto).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

type profSampleRec struct {
	locs   []uint64
	values []uint64
}

func selfSamplesRaw(raw []byte) (map[string]int64, error) {
	var (
		samples []profSampleRec
		leafFn  = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]uint64{} // function id -> string index
		strs    []string
	)
	err := walkFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s profSampleRec
			err := walkFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					s.locs = appendPacked(s.locs, wire, v, b)
				case sampleValue:
					s.values = appendPacked(s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id, fn uint64
			first := true
			err := walkFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					// Lines are listed innermost first: the first one
					// is the frame that was executing.
					if !first {
						return nil
					}
					first = false
					return walkFields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFn[id] = fn
			return err
		case profFunction:
			var id, name uint64
			err := walkFields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := "unknown"
		if idx, ok := fnName[leafFn[s.locs[0]]]; ok && int(idx) < len(strs) {
			name = strs[idx]
		}
		// CPU profiles carry (samples/count, cpu/nanoseconds) values.
		out[name] += int64(s.values[0])
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of one protobuf message: v holds a
// varint value, b a length-delimited payload.
func walkFields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// varint) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(buf []byte) (uint64, int) {
	var x uint64
	for i, c := range buf {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// modPrefix is the import-path prefix of the simulator's packages.
const modPrefix = "deadlineqos/internal/"

// pkgLayer maps a simulator package to the layer its self time counts
// towards. Packages not listed fall into "other".
var pkgLayer = map[string]string{
	"sim":       "sim",
	"parsim":    "parsim",
	"pqueue":    "pqueue",
	"switchsim": "switchsim",
	"arbiter":   "arbiter",
	"policy":    "arbiter",
	"link":      "link",
	"hostif":    "hostif",
	"police":    "police",
	"traffic":   "traffic",
	"stats":     "stats",
	"metrics":   "metrics",
	"trace":     "trace",
	"session":   "session",
	"admission": "admission",
	"network":   "network",
}

// layers lists every layer reported as <layer>.cpu_pct, in output order;
// the runtime buckets are reported as runtime.<bucket>_pct.
var (
	layers         = []string{"sim", "parsim", "pqueue", "switchsim", "arbiter", "link", "hostif", "police", "traffic", "stats", "metrics", "trace", "session", "admission", "network"}
	runtimeBuckets = []string{"alloc", "gc", "sched", "maps"}
)

// Runtime and standard-library functions by cost bucket, matched on the
// name after the package qualifier (prefix match).
var (
	allocFuncs = []string{"mallocgc", "nextFreeFast", "newobject", "newarray", "makeslice", "growslice",
		"makemap", "(*mcache).", "(*mcentral).", "(*mheap).", "(*pageAlloc).", "(*mspan).init",
		"(*mspan).nextFreeIndex", "(*fixalloc).", "memclrNoHeapPointers", "heapSetType",
		"heapBitsSetType", "(*mspan).writeHeapBits", "writeHeapBits", "publicationBarrier",
		"profilealloc", "sysAlloc", "sysUsed", "deductAssistCredit", "(*limiterEvent).", "allocm"}
	gcFuncs = []string{"gcBgMarkWorker", "gcDrain", "gcMark", "scanobject", "scanblock", "scanstack",
		"scanframeworker", "scanConservative", "greyobject", "findObject", "markroot", "(*gcWork).",
		"(*gcBits).", "gcAssistAlloc", "gcWriteBarrier", "wbBufFlush", "(*wbBuf).", "bulkBarrier",
		"sweepone", "(*sweepLocked).", "(*sweepLocker).", "bgsweep", "bgscavenge", "(*scavengerState).",
		"gcStart", "gcMarkTermination", "gcFlushBgCredit", "(*gcControllerState).", "typePointers",
		"(*mspan).typePointersOf", "(*typePointers).", "spanOf", "pageIndexOf", "(*markBits).",
		"(*mspan).markBitsForIndex", "(*mspan).heapBits", "heapBitsForAddr", "(*gcCPULimiterState).",
		"gcResetMarkState", "freeSomeWbufs", "(*mspan).sweep", "sweep", "_GC", "(*mspan).objIndex",
		"(*mspan).divideByElemSize", "(*gcWork).tryGet", "wbMove", "typedmemmove", "typedslicecopy",
		"(*pageAlloc).scavenge", "markBitsForAddr", "(*activeSweep)."}
	schedFuncs = []string{"schedule", "findRunnable", "findrunnable", "park_m", "gopark", "goready",
		"ready", "casgstatus", "castogscanstatus", "lock2", "unlock2", "lockWithRank", "unlockWithRank",
		"lock", "unlock", "futex", "notesleep", "notewakeup", "notetsleep", "runqget", "runqput",
		"runqgrab", "runqsteal", "stealWork", "mcall", "gosched_m", "goschedImpl", "Gosched",
		"procyield", "osyield", "usleep", "wakep", "startm", "stopm", "handoffp", "semacquire",
		"semrelease", "(*semaRoot).", "checkTimers", "(*timers).", "nanotime", "sysmon", "exitsyscall",
		"entersyscall", "goexit", "newproc", "mPark", "acquirep", "releasep", "pidleget", "pidleput",
		"netpoll", "epollwait", "chanrecv", "chansend", "selectgo", "resetspinning", "execute",
		"gcstopm", "retake", "_System", "runtime_doSpin", "runtime_canSpin", "sync_runtime_",
		"(*randomEnum).", "(*randomOrder).", "cheaprand", "acquireSudog", "releaseSudog", "gogo",
		"goready", "runqempty", "globrunqget", "checkdead", "templateThread", "mstart", "minit"}
	mapFuncs = []string{"mapaccess", "mapassign", "mapdelete", "mapiter", "mapclear", "memhash",
		"strhash", "aeshash", "memequal", "interhash", "nilinterhash", "typehash", "efaceeq", "ifaceeq",
		"f64hash", "c64hash", "int64Hash", "bucketShift"}
)

// classify returns the layer (a pkgLayer value, "runtime.<bucket>", or
// "other") that a function's self time counts towards.
func classify(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modPrefix); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "internal/runtime/maps."):
		return "runtime.maps"
	case strings.HasPrefix(fn, "sync.") || strings.HasPrefix(fn, "internal/sync.") ||
		strings.HasPrefix(fn, "sync/atomic.") || strings.HasPrefix(fn, "internal/runtime/atomic."):
		return "runtime.sched"
	case strings.HasPrefix(fn, "runtime."):
		name := strings.TrimPrefix(fn, "runtime.")
		for _, b := range []struct {
			bucket string
			funcs  []string
		}{{"maps", mapFuncs}, {"alloc", allocFuncs}, {"gc", gcFuncs}, {"sched", schedFuncs}} {
			for _, f := range b.funcs {
				if strings.HasPrefix(name, f) {
					return "runtime." + b.bucket
				}
			}
		}
	}
	return "other"
}

// groupLayers sums leaf-function samples by layer and returns each
// layer's share of all samples, in percent, plus the sample total. Every
// layer in layers and runtimeBuckets is present, zero when idle.
func groupLayers(self map[string]int64) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for fn, n := range self {
		counts[classify(fn)] += n
		total += n
	}
	pct := make(map[string]float64, len(layers)+len(runtimeBuckets)+1)
	for _, l := range layers {
		pct[l] = 0
	}
	for _, b := range runtimeBuckets {
		pct["runtime."+b] = 0
	}
	pct["other"] = 0
	if total == 0 {
		return pct, 0
	}
	for l, n := range counts {
		pct[l] = 100 * float64(n) / float64(total)
	}
	return pct, total
}

package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/ycsb"
)

// Record shape shared by the YCSB-style workloads: YCSB's default of ten
// 100-byte fields.
const (
	nFields  = 10
	fieldLen = 100
)

var fieldNames = func() [nFields]string {
	var out [nFields]string
	for i := range out {
		out[i] = fmt.Sprintf("field%d", i)
	}
	return out
}()

// counterField is the single field of a counters-wire record.
const counterField = "n"

// opKind enumerates the operations a generated stream carries.
type opKind uint8

const (
	opRead opKind = iota
	opUpdate
	opInsert
	opDelete
	opAddDelta
)

func (k opKind) String() string {
	return [...]string{"read", "update", "insert", "delete", "add-delta"}[k]
}

// isWrite reports whether the op mutates the store (its latency counts as
// a write, and it is done only once acknowledged, which means durable).
func (k opKind) isWrite() bool { return k != opRead }

// op is one generated request. For updates field is the field index; for
// add-delta arg is the (positive) delta.
type op struct {
	kind  opKind
	field uint8
	arg   uint16
	key   uint32
}

// keyName is the record key of index i.
func keyName(i int) string { return fmt.Sprintf("user%09d", i) }

// keyNames precomputes the keys of indices [0, n) so the timed loops do
// not allocate one per op.
func keyNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = keyName(i)
	}
	return out
}

// streamRNG derives the generator of one stream from the run seed; lane
// separates the streams of concurrent connections.
func streamRNG(seed int64, lane int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(lane)*104729 + 1))
}

// genYCSBA is one connection's YCSB-A stream: 50% reads of the whole
// record, 50% updates of one field, keys scrambled-zipfian with
// theta=0.99 over the loaded records.
func genYCSBA(seed int64, lane, records, n int) []op {
	rng := streamRNG(seed, lane)
	keys := ycsb.NewScrambledZipfian(records)
	out := make([]op, n)
	for i := range out {
		o := op{key: uint32(keys.Next(rng))}
		if rng.Intn(2) == 0 {
			o.kind = opRead
		} else {
			o.kind = opUpdate
			o.field = uint8(rng.Intn(nFields))
		}
		out[i] = o
	}
	return out
}

// genCounters is one connection's counter stream: 75% add-delta of a
// delta in [1, 7], 25% reads, keys zipfian with theta=0.99 (key 0 is the
// hottest counter). Deltas are positive so a read can be checked against
// the reader's own acknowledged sum.
func genCounters(seed int64, lane, records, n int) []op {
	rng := streamRNG(seed, lane)
	keys := ycsb.NewZipfian(records)
	out := make([]op, n)
	for i := range out {
		o := op{key: uint32(keys.Next(rng))}
		if rng.Intn(4) == 0 {
			o.kind = opRead
		} else {
			o.kind = opAddDelta
			o.arg = uint16(1 + rng.Intn(7))
		}
		out[i] = o
	}
	return out
}

// churnGen generates the churn-recover stream over an initial live set
// of keys [0, records): 40% reads, 30% one-field updates, 15% inserts of
// a fresh key, 15% deletes, keys uniform over the live set. It tracks the
// live set itself, so every read, update and delete targets a key the
// shadow holds and every insert a key never used before. Successive
// calls continue one stream.
type churnGen struct {
	rng  *rand.Rand
	live []uint32
	next int // first key index never used
}

func newChurnGen(seed int64, records int) *churnGen {
	g := &churnGen{rng: streamRNG(seed, 0), live: make([]uint32, records), next: records}
	for i := range g.live {
		g.live[i] = uint32(i)
	}
	return g
}

// gen returns the next n ops of the stream.
func (g *churnGen) gen(n int) []op {
	rng := g.rng
	out := make([]op, n)
	for i := range out {
		p := rng.Intn(100)
		switch {
		case p < 15 || len(g.live) == 0:
			out[i] = op{kind: opInsert, key: uint32(g.next)}
			g.live = append(g.live, uint32(g.next))
			g.next++
		case p < 30:
			j := rng.Intn(len(g.live))
			out[i] = op{kind: opDelete, key: g.live[j]}
			g.live[j] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
		case p < 60:
			out[i] = op{kind: opUpdate, key: g.live[rng.Intn(len(g.live))], field: uint8(rng.Intn(nFields))}
		default:
			out[i] = op{kind: opRead, key: g.live[rng.Intn(len(g.live))]}
		}
	}
	return out
}

// Field values are self-describing so a read can be checked on its own:
//
//	[0:4]   key index (little endian)
//	[4]     field index
//	[5]     writer (0 = initial load, c+1 = connection c)
//	[6:8]   zero
//	[8:16]  writer-local sequence number (the version)
//	[16:]   filler derived from the header, so a torn or foreign value
//	        does not decode
func encodeValue(dst []byte, key uint32, field, writer uint8, seq uint64) {
	binary.LittleEndian.PutUint32(dst[0:], key)
	dst[4], dst[5], dst[6], dst[7] = field, writer, 0, 0
	binary.LittleEndian.PutUint64(dst[8:], seq)
	x := fillerSeed(key, field, writer, seq)
	for i := 16; i < len(dst); i++ {
		dst[i] = byte(x>>(8*(i&7))) ^ byte(i)
	}
}

// version identifies one write of one field.
type version struct {
	writer uint8
	seq    uint64
}

// decodeValue parses a field value written by encodeValue; ok is false
// for any value encodeValue cannot have produced.
func decodeValue(v []byte) (key uint32, field uint8, ver version, ok bool) {
	if len(v) != fieldLen || v[6] != 0 || v[7] != 0 {
		return 0, 0, version{}, false
	}
	key = binary.LittleEndian.Uint32(v[0:])
	field, ver.writer = v[4], v[5]
	ver.seq = binary.LittleEndian.Uint64(v[8:])
	x := fillerSeed(key, field, ver.writer, ver.seq)
	for i := 16; i < len(v); i++ {
		if v[i] != byte(x>>(8*(i&7)))^byte(i) {
			return 0, 0, version{}, false
		}
	}
	return key, field, ver, true
}

func fillerSeed(key uint32, field, writer uint8, seq uint64) uint64 {
	x := uint64(key)<<16 | uint64(field)<<8 | uint64(writer)
	x ^= seq * 0x9E3779B97F4A7C15
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x
}

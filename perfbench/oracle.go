package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/store"
)

// The oracles check the program's outputs against what the benchmark
// itself sent and saw acknowledged. Each returns an error describing the
// first way an output is wrong; the caller counts it as a failed op (a
// bad read) or a lost acknowledged write (a bad final value), and any of
// either fails the run.

// ycsbOracle checks ycsb-a-wire. Connection c owns last[c]; it records
// an update only once the update's window has been answered, so a value
// in last[c] is an acknowledged, hence durable, write.
type ycsbOracle struct {
	last [][]uint64 // [conn][key*nFields+field] -> seq of the last acked write, 0 if none
}

func newYCSBOracle(records, conns int) *ycsbOracle {
	o := &ycsbOracle{last: make([][]uint64, conns)}
	for c := range o.last {
		o.last[c] = make([]uint64, records*nFields)
	}
	return o
}

// ack records connection c's acknowledged write of seq to (key, field).
func (o *ycsbOracle) ack(c int, key uint32, field uint8, seq uint64) {
	o.last[c][int(key)*nFields+int(field)] = seq
}

// checkRead verifies a whole-record read of key by connection c: ten
// well-formed values, each encoding this key and its own field, and none
// older than a write c had seen acknowledged before it sent the read.
func (o *ycsbOracle) checkRead(c int, key uint32, fields []store.Field) error {
	if len(fields) != nFields {
		return fmt.Errorf("read %s: %d fields, want %d", keyName(int(key)), len(fields), nFields)
	}
	for _, f := range fields {
		k, fi, ver, ok := decodeValue(f.Value)
		if !ok || k != key || int(fi) >= nFields || f.Name != fieldNames[fi] {
			return fmt.Errorf("read %s: field %s holds %s", keyName(int(key)), f.Name, describe(f.Value))
		}
		own := o.last[c][int(key)*nFields+int(fi)]
		if own == 0 {
			continue
		}
		// Another connection may legitimately have overwritten c's
		// write; only c's own older writes and the initial load are
		// stale.
		if ver.writer == 0 || (int(ver.writer) == c+1 && ver.seq < own) {
			return fmt.Errorf("read %s: field %s is stale (writer %d seq %d, own acked seq %d)",
				keyName(int(key)), f.Name, ver.writer, ver.seq, own)
		}
	}
	return nil
}

// checkFinal verifies the final value of one field: it must be one of
// the connections' last acknowledged writes to it, or the initial load
// when no connection wrote it.
func (o *ycsbOracle) checkFinal(key uint32, field uint8, value []byte) error {
	k, fi, ver, ok := decodeValue(value)
	if !ok || k != key || fi != field {
		return fmt.Errorf("final %s.%s: holds %s", keyName(int(key)), fieldNames[field], describe(value))
	}
	written := false
	for c := range o.last {
		seq := o.last[c][int(key)*nFields+int(field)]
		if seq == 0 {
			continue
		}
		written = true
		if int(ver.writer) == c+1 && ver.seq == seq {
			return nil
		}
	}
	if !written && ver.writer == 0 {
		return nil
	}
	return fmt.Errorf("final %s.%s: holds writer %d seq %d, not a last acknowledged write",
		keyName(int(key)), fieldNames[field], ver.writer, ver.seq)
}

// counterOracle checks counters-wire: acked[c][k] is the sum of the
// deltas connection c had acknowledged on counter k.
type counterOracle struct {
	initial []int64
	acked   [][]int64
}

func newCounterOracle(initial []int64, conns int) *counterOracle {
	o := &counterOracle{initial: initial, acked: make([][]int64, conns)}
	for c := range o.acked {
		o.acked[c] = make([]int64, len(initial))
	}
	return o
}

func (o *counterOracle) ack(c int, key uint32, delta int64) { o.acked[c][key] += delta }

func counterValue(fields []store.Field) (int64, bool) {
	if len(fields) != 1 || fields[0].Name != counterField || len(fields[0].Value) != 8 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(fields[0].Value)), true
}

// checkRead verifies a read by connection c: deltas are positive, so the
// counter can never be below its initial value plus the deltas c alone
// had acknowledged when it sent the read.
func (o *counterOracle) checkRead(c int, key uint32, fields []store.Field) error {
	v, ok := counterValue(fields)
	if !ok {
		return fmt.Errorf("read %s: not an 8-byte counter record", keyName(int(key)))
	}
	if floor := o.initial[key] + o.acked[c][key]; v < floor {
		return fmt.Errorf("read %s: %d is below initial plus own acknowledged deltas %d", keyName(int(key)), v, floor)
	}
	return nil
}

// expected is the exact final value of counter key.
func (o *counterOracle) expected(key uint32) int64 {
	v := o.initial[key]
	for c := range o.acked {
		v += o.acked[c][key]
	}
	return v
}

// checkFinal verifies that a counter equals its initial value plus every
// acknowledged delta, exactly.
func (o *counterOracle) checkFinal(key uint32, fields []store.Field) error {
	v, ok := counterValue(fields)
	if !ok {
		return fmt.Errorf("final %s: not an 8-byte counter record", keyName(int(key)))
	}
	if want := o.expected(key); v != want {
		return fmt.Errorf("final %s: %d, want initial plus acknowledged deltas %d", keyName(int(key)), v, want)
	}
	return nil
}

// shadow is churn-recover's model of the store: which keys are live and
// the version of each of their fields. Every op is durable when the grid
// returns (per-Tx commit), so the shadow is updated right after each
// successful call.
type shadow struct {
	live  []bool
	seqs  []uint32 // [key*nFields+field]
	nLive int
}

func newShadow(keys int) *shadow {
	return &shadow{live: make([]bool, keys), seqs: make([]uint32, keys*nFields)}
}

// grow makes room for key indices below keys.
func (s *shadow) grow(keys int) {
	for len(s.live) < keys {
		s.live = append(s.live, false)
	}
	for len(s.seqs) < keys*nFields {
		s.seqs = append(s.seqs, 0)
	}
}

func (s *shadow) put(key uint32, field uint8, seq uint64) {
	if !s.live[key] {
		s.live[key] = true
		s.nLive++
	}
	s.seqs[int(key)*nFields+int(field)] = uint32(seq)
}

func (s *shadow) del(key uint32) {
	if s.live[key] {
		s.live[key] = false
		s.nLive--
	}
}

// fieldCheck verifies one streamed field of a churn-recover read and
// counts it in seen, a bitmask of the fields observed so far.
func (s *shadow) fieldCheck(key uint32, name string, value []byte, seen *uint32) error {
	k, fi, ver, ok := decodeValue(value)
	if !ok || k != key || int(fi) >= nFields || name != fieldNames[fi] {
		return fmt.Errorf("%s: field %s holds %s", keyName(int(key)), name, describe(value))
	}
	if want := uint64(s.seqs[int(key)*nFields+int(fi)]); ver.seq != want {
		return fmt.Errorf("%s: field %s has version %d, want %d", keyName(int(key)), name, ver.seq, want)
	}
	*seen |= 1 << fi
	return nil
}

const allFields = 1<<nFields - 1

// describe names what a field value that failed a check holds.
func describe(v []byte) string {
	k, fi, ver, ok := decodeValue(v)
	if !ok {
		return fmt.Sprintf("an undecodable %d-byte value", len(v))
	}
	return fmt.Sprintf("the value of %s.field%d (writer %d seq %d)", keyName(int(k)), fi, ver.writer, ver.seq)
}

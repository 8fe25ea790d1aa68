package core

import (
	"fmt"
	"reflect"

	"repro/internal/spmat"
	"repro/internal/wire"
)

// fieldClass says what a Config field can change, from most to least
// persistent. The classes nest: a fingerprint covers every field at or
// below its class, so a field enters the table once and lands in every
// identity it belongs to.
type fieldClass int

const (
	// classIndexShape fields shape the persisted A/S matrices: an index
	// built under one value cannot serve another.
	classIndexShape fieldClass = iota
	// classPSG fields act after the matrix stages but still determine the
	// similarity graph: one index serves any value, a checkpoint or a cached
	// result does not.
	classPSG
	// classMachine fields leave the graph bit-identical (parallelism,
	// transport, memory and fault-tolerance knobs): in no fingerprint, so a
	// run may be resumed, and a cache reused, under different values.
	classMachine
)

// configFields classifies every Config field, in hash order (the order is
// the byte layout of existing checkpoints and indexes; append, never
// reorder). TestConfigFieldsClassified fails when Config gains a field this
// table does not name.
var configFields = []struct {
	name  string
	class fieldClass
}{
	{"K", classIndexShape},
	{"SubstituteKmers", classIndexShape},
	{"Align", classPSG},
	{"Weight", classPSG},
	{"CommonKmerThreshold", classPSG},
	{"MaxKmerFrequency", classIndexShape},
	{"MinIdentity", classPSG},
	{"MinCoverage", classPSG},
	{"GapOpen", classPSG},
	{"GapExtend", classPSG},
	{"XDropValue", classPSG},
	{"NaiveTriangle", classPSG},

	{"Threads", classMachine},
	{"Blocks", classMachine},
	{"Transport", classMachine},
	{"Faults", classMachine},
	{"CheckpointDir", classMachine},
	{"Resume", classMachine},
	{"MemBudget", classMachine},
	{"BlockingExchange", classMachine},
}

// appendFields appends the hash encoding of every Config field of class
// upTo or below, in table order: integers and booleans as a u64, floats as
// their bit pattern, strings length-prefixed.
func appendFields(buf []byte, cfg Config, upTo fieldClass) []byte {
	v := reflect.ValueOf(cfg)
	for _, f := range configFields {
		if f.class > upTo {
			continue
		}
		fv := v.FieldByName(f.name)
		switch fv.Kind() {
		case reflect.Int, reflect.Int64:
			buf = wire.AppendU64(buf, uint64(fv.Int()))
		case reflect.Float64:
			buf = wire.AppendF64(buf, fv.Float())
		case reflect.String:
			buf = wire.AppendString(buf, fv.String())
		case reflect.Bool:
			var b uint64
			if fv.Bool() {
				b = 1
			}
			buf = wire.AppendU64(buf, b)
		default:
			panic(fmt.Sprintf("core: Config.%s has no fingerprint encoding", f.name))
		}
	}
	return buf
}

// IndexFingerprint hashes the parameters that shape the persisted artifact:
// the cluster size (which fixes the 2D block decomposition) and the
// index-shape Config fields. Alignment knobs — kernel, thresholds, gap
// costs — act after the matrix stages, so one index serves any of them at
// query time.
func IndexFingerprint(cfg Config, p int) uint64 {
	return wire.Checksum(wire.ChecksumInit, appendFields(wire.AppendU64(nil, uint64(p)), cfg, classIndexShape))
}

// configFingerprint hashes what determines a run's similarity graph: the
// grid size, the input size, and every index-shape and PSG Config field. It
// guards a checkpoint against being resumed into a different run.
func configFingerprint(cfg Config, p int, total spmat.Index) uint64 {
	buf := wire.AppendU64(nil, uint64(p))
	buf = wire.AppendU64(buf, uint64(total))
	return wire.Checksum(wire.ChecksumInit, appendFields(buf, cfg, classPSG))
}

// PSGKey is the exact (unhashed) encoding of every graph-determining Config
// field: two configs serve each other's cached results iff their keys are
// equal.
func PSGKey(cfg Config) string { return string(appendFields(nil, cfg, classPSG)) }

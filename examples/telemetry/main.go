// Telemetry aggregation example: exercises the §7 extension operators —
// copy, merge, clear — through the accelerated system, the pattern of a
// metrics pipeline that folds per-shard protobuf snapshots into a global
// view each tick, then exports it in text format (the textformat
// package).
//
// Per tick:  global = copy(shard0); merge(global, shard1..N); export;
// then clear the shard snapshots for the next interval — the operator mix
// Figure 2 attributes 17.1% of fleet protobuf cycles to.
package main

import (
	"fmt"
	"log"

	"protoacc/internal/core"
	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/protoparse"
	"protoacc/internal/pb/textformat"
)

const protoSrc = `
syntax = "proto2";
package telemetry;

message Counter {
  required string name  = 1;
  optional int64  value = 2;
}

message Snapshot {
  optional int64   tick     = 1;
  optional string  source   = 2;
  repeated Counter counters = 3;
  repeated double  samples  = 4 [packed=true];
}
`

func main() {
	file, err := protoparse.Parse("telemetry.proto", protoSrc)
	if err != nil {
		log.Fatal(err)
	}
	snap := file.MessageByName("Snapshot")

	boom := core.New(core.DefaultConfig(core.KindBOOM))
	accel := core.New(core.DefaultConfig(core.KindAccel))
	for _, sys := range []*core.System{boom, accel} {
		if err := sys.LoadSchema(snap); err != nil {
			log.Fatal(err)
		}
	}

	// Per-shard snapshots for one tick.
	const shards = 4
	buildShard := func(shard, tick int) *dynamic.Message {
		m := dynamic.New(snap)
		m.SetInt64(1, int64(tick))
		m.SetString(2, fmt.Sprintf("shard-%d", shard))
		for c := 0; c < 3; c++ {
			ctr := m.AddMessage(3)
			ctr.SetString(1, fmt.Sprintf("rpc.latency.bucket%d", c))
			ctr.SetInt64(2, int64(100*shard+c))
		}
		for s := 0; s < 8; s++ {
			m.AddScalarBits(4, uint64(4607182418800017408+uint64(shard*8+s))) // ~1.0 + eps
		}
		return m
	}

	var boomCycles, accelCycles float64
	var exported []byte
	const ticks = 10
	for tick := 0; tick < ticks; tick++ {
		for _, sys := range []*core.System{boom, accel} {
			// Materialize this tick's shard snapshots.
			shardAddrs := make([]uint64, shards)
			for s := range shardAddrs {
				a, err := sys.MaterializeInput(buildShard(s, tick))
				if err != nil {
					log.Fatal(err)
				}
				shardAddrs[s] = a
			}
			var cycles float64
			// global = copy(shard0)
			cres, err := sys.Copy(snap, shardAddrs[0])
			if err != nil {
				log.Fatal(err)
			}
			cycles += cres.Cycles
			global := cres.ObjAddr
			// merge the rest
			for _, sa := range shardAddrs[1:] {
				mres, err := sys.Merge(snap, global, sa)
				if err != nil {
					log.Fatal(err)
				}
				cycles += mres.Cycles
			}
			// serialize the global view (export path)
			sres, err := sys.Serialize(snap, global)
			if err != nil {
				log.Fatal(err)
			}
			cycles += sres.Cycles
			// clear shard snapshots for the next interval
			for _, sa := range shardAddrs {
				clres, err := sys.Clear(snap, sa)
				if err != nil {
					log.Fatal(err)
				}
				cycles += clres.Cycles
			}
			if sys == boom {
				boomCycles += cycles
			} else {
				accelCycles += cycles
				if tick == ticks-1 {
					exported, err = sys.ReadWire(sres.WireAddr, sres.Bytes)
					if err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	}

	fmt.Printf("telemetry pipeline over %d ticks x %d shards (copy+merge+serialize+clear):\n", ticks, shards)
	fmt.Printf("  riscv-boom:       %9.0f cycles\n", boomCycles)
	fmt.Printf("  riscv-boom-accel: %9.0f cycles  (%.1fx)\n", accelCycles, boomCycles/accelCycles)

	// Export the final global view in human-readable text format.
	m, err := codec.Unmarshal(snap, exported)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal global snapshot as text format (first 5 lines):\n")
	lines := 0
	for _, line := range splitLines(textformat.Marshal(m)) {
		fmt.Println(" ", line)
		lines++
		if lines == 5 {
			break
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

package serve

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"protoacc/internal/faults"
	"protoacc/internal/serve/elements"
)

func TestOptionsRegisterFlags(t *testing.T) {
	fault := func(rate float64, sites string, seed uint64) faults.Config {
		return faults.Config{Enabled: true, Rate: rate, Sites: sites, Seed: seed}
	}
	cases := []struct {
		args    string
		want    Options
		wantErr bool
	}{
		{args: "", want: Options{Faults: faults.Config{Seed: 1}}},
		{
			args: "-tiles 4 -workers 3 -max-batch 8 -batch-window 50us -queue-depth 32" +
				" -span-sample-n 16 -elements admission,cache" +
				" -faults 0.1@arena -fault-seed 9 -fault-tiles 0,2",
			want: Options{
				Tiles: 4, Workers: 3, MaxBatch: 8,
				BatchWindow: 50 * time.Microsecond, QueueDepth: 32,
				SpanSampleN: 16,
				Elements:    elements.Config{Admission: true, Cache: true},
				Faults:      fault(0.1, "arena", 9),
				FaultTiles:  []int{0, 2},
			},
		},
		{args: "-faults 0.02 -fault-seed 7", want: Options{Faults: fault(0.02, "", 7)}},
		{args: "-fault-seed 7 -faults 0.02", want: Options{Faults: fault(0.02, "", 7)}},
		{
			// -admit-rate is bound the way protoaccd binds it; a later
			// -elements must not reset it.
			args: "-admit-rate 5 -elements all",
			want: Options{
				Elements: elements.Config{Admission: true, Breaker: true, Cache: true, FillRate: 5},
				Faults:   faults.Config{Seed: 1},
			},
		},

		// Every batch runs the cycle model; no flag turns it off.
		{args: "-cycle-mode sampled", wantErr: true},
		{args: "-cycle-sample-n 8", wantErr: true},
		{args: "-elements bogus", wantErr: true},
		{args: "-faults 2", wantErr: true},
		{args: "-faults 0.1@", wantErr: true},
		{args: "-fault-tiles 1,x", wantErr: true},
		{args: "-fault-tiles 1,,2", wantErr: true},
	}
	for _, c := range cases {
		var got Options
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		got.RegisterFlags(fs)
		fs.Float64Var(&got.Elements.FillRate, "admit-rate", 0, "")
		err := fs.Parse(strings.Fields(c.args))
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: want error, got %+v", c.args, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q:\n got %+v\nwant %+v", c.args, got, c.want)
		}
	}
}

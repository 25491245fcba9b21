package main

import (
	"flag"
	"strings"
	"testing"
)

// One row per rule in checkFlags, plus command lines that must pass. A
// "name=value" entry also sets the flag's value for its row, and an
// "args=..." entry lists the arguments left after the flags.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		given []string
		want  string // substring of the error; empty = accepted
	}{
		{nil, ""},
		{[]string{"tiles", "elements", "stats-out", "schema", "op", "rate", "skew", "trace-out", "span-sample-n"}, ""},
		{[]string{"addr", "duration", "concurrency", "check"}, ""},
		{[]string{"cluster", "cluster-admin", "schema", "duration"}, ""},
		{[]string{"workload", "trace-seed", "trace-len", "concurrency", "timeout", "check", "tiles", "stats-out"}, ""},
		{[]string{"addr", "workload", "trace-len"}, ""},

		{[]string{"addr", "tiles"}, "in-process server flags conflict with -addr: -tiles"},
		{[]string{"addr", "stats-out", "faults"}, "conflict with -addr: -faults -stats-out"},
		{[]string{"cluster-admin"}, "cluster flags need -cluster: -cluster-admin"},
		{[]string{"cluster", "addr"}, "-cluster replaces the single -addr target"},
		{[]string{"cluster", "workers"}, "-cluster replaces the single -addr target"},
		{[]string{"cluster", "workload"}, "-cluster does not combine"},
		{[]string{"trace-len"}, "workload flags need -workload: -trace-len"},
		{[]string{"workload", "rate", "duration", "skew", "schema"}, "-workload replays its whole trace closed-loop and ignores -schema -duration -rate -skew"},
		{[]string{"workload", "op"}, "ignores -op"},
		{[]string{"addr", "workload", "trace-out"}, "ignores -trace-out"},
		{[]string{"addr", "trace-out"}, "a daemon serves its own on its admin /spans endpoint"},
		{[]string{"duration=0s"}, "-duration 0s must be positive"},
		{[]string{"concurrency=0"}, "-concurrency 0 must be at least 1"},
		{[]string{"workload", "concurrency=-3"}, "-concurrency -3 must be at least 1"},
		{[]string{"rate=-50"}, "-rate -50 must be 0 (closed loop) or a finite positive rate"},
		{[]string{"rate=NaN"}, "-rate NaN must be"},
		{[]string{"rate=Inf"}, "-rate +Inf must be"},
		{[]string{"rate=-Inf"}, "-rate -Inf must be"},
		{[]string{"rate=1e-9"}, ""},
		// `-check false -duration 100ms`: flag parsing stops at "false".
		{[]string{"check", "args=false -duration 100ms"}, `unexpected argument "false"`},
	}
	for _, c := range cases {
		given := map[string]bool{}
		var set []*flag.Flag
		var args []string
		for _, arg := range c.given {
			name, value, hasValue := strings.Cut(arg, "=")
			if name == "args" {
				args = strings.Fields(value)
				continue
			}
			f := flag.Lookup(name)
			if f == nil {
				t.Fatalf("%v: loadgen has no flag -%s", c.given, name)
			}
			if hasValue {
				if err := f.Value.Set(value); err != nil {
					t.Fatalf("%v: -%s: %v", c.given, name, err)
				}
				set = append(set, f)
			}
			given[name] = true
		}
		err := checkFlags(given, args)
		for _, f := range set {
			f.Value.Set(f.DefValue)
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", c.given, err)
		case c.want != "" && err == nil:
			t.Errorf("%v: accepted, want an error containing %q", c.given, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%v: error %q, want it to contain %q", c.given, err, c.want)
		}
	}
}

package serve

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"protoacc/internal/serve/elements"
)

// RegisterFlags binds the server flags that protoaccd and loadgen's
// in-process server share into o's fields. Each flag defaults to its
// field's zero value, which selects the default noted on the field;
// -fault-seed defaults to 1.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Tiles, "tiles", 0, "independent accelerator tiles behind the router (0 = default 1)")
	fs.IntVar(&o.Workers, "workers", 0, "total batch executors, split across tiles (0 = GOMAXPROCS)")
	fs.IntVar(&o.MaxBatch, "max-batch", 0, "max requests per accelerator batch (0 = default 16)")
	fs.DurationVar(&o.BatchWindow, "batch-window", 0, "longest an under-full batch waits for partners; a key arriving further apart than this flushes at once (0 = default 200µs)")
	fs.IntVar(&o.QueueDepth, "queue-depth", 0, "per-tile admission queue bound; requests routed to a full tile are shed (0 = default 1024)")
	fs.IntVar(&o.SpanSampleN, "span-sample-n", 0, "sample every N'th admitted request with a lifecycle span (/spans, -trace-out) (0 = off)")
	fs.Var((*elementsFlag)(&o.Elements), "elements", `data-plane element chain: "all", "off", or a comma list of admission,breaker,cache (empty = off)`)
	o.Faults.RegisterFlags(fs)
	fs.Var((*tileList)(&o.FaultTiles), "fault-tiles", "comma-separated tile ids the fault schedule applies to (empty = every tile)")
}

// elementsFlag is the -elements flag.Value. It sets only the enable
// bits, so the FillRate that -admit-rate binds keeps its value whatever
// the argument order.
type elementsFlag elements.Config

func (f *elementsFlag) String() string {
	if f == nil || !(*elements.Config)(f).Any() {
		return ""
	}
	return (*elements.Config)(f).Spec()
}

func (f *elementsFlag) Set(spec string) error {
	c, err := elements.ParseSpec(spec)
	if err != nil {
		return err
	}
	f.Admission, f.Breaker, f.Cache = c.Admission, c.Breaker, c.Cache
	return nil
}

// tileList is the -fault-tiles flag.Value: comma-separated tile ids,
// empty (nil) for every tile.
type tileList []int

func (l *tileList) String() string {
	if l == nil {
		return ""
	}
	ids := make([]string, len(*l))
	for i, id := range *l {
		ids[i] = strconv.Itoa(id)
	}
	return strings.Join(ids, ",")
}

func (l *tileList) Set(s string) error {
	var ids []int
	if s != "" {
		for _, part := range strings.Split(s, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				return fmt.Errorf("serve: empty tile id in %q (stray comma?)", s)
			}
			id, err := strconv.Atoi(part)
			if err != nil {
				return fmt.Errorf("serve: bad tile id %q: %v", part, err)
			}
			ids = append(ids, id)
		}
	}
	*l = ids
	return nil
}

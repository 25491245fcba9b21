// Package faults is the deterministic fault-injection framework of the
// simulator. It models the failure modes a shared-memory accelerator next
// to an OoO core is exposed to in deployment — memloader/memwriter access
// faults (the simulated analogue of page/TLB faults), metadata-stack spill
// failures, arena exhaustion, RoCC queue timeouts, and wire-byte
// corruption from untrusted peers — as named injection *sites* threaded
// through the simulated units.
//
// Design contract:
//
//   - Determinism. An Injector is a seeded splitmix64 stream; whether trial
//     N at site S faults depends only on (seed, site, N). Replaying the
//     same workload with the same seed reproduces the same fault schedule,
//     serial or parallel, which is what makes the differential chaos
//     harness in internal/bench possible.
//   - Zero cost when off. Units hold a *Injector pointer that is normally
//     nil; Injector.At is nil-receiver-safe and a disabled injector is a
//     single predictable branch. The fault-free simulation paths stay
//     cycle-identical and allocation-free (the telemetry overhead guards
//     cover this).
//   - Phantom faults. An injected fault fails the operation without
//     corrupting simulated memory — like a page fault, the access never
//     completes. Recovery (retry or software fallback) therefore operates
//     on pristine input, and the transactional abort in internal/core only
//     has to undo the unit's own partial writes.
package faults

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Site names one injection point threaded through the simulated units.
type Site int

const (
	// SiteMemloader: a load issued by an accelerator frontend (deserializer
	// field dispatch, serializer descriptor walk) faults — the simulated
	// analogue of a page/TLB fault on the memloader port.
	SiteMemloader Site = iota
	// SiteMemwriter: a store issued by an accelerator unit (object-slot
	// writeback, output-buffer write) faults.
	SiteMemwriter
	// SiteStackSpill: spilling the metadata stack of nested-message parse
	// state to memory fails.
	SiteStackSpill
	// SiteArena: an arena (or heap) allocation request cannot be satisfied.
	SiteArena
	// SiteRoCCTimeout: a RoCC command sits in the accelerator queue past
	// its deadline and the core gives up on it.
	SiteRoCCTimeout
	// SiteWireCorrupt: a wire byte is observed corrupted in flight — the
	// frontend detects the corruption (checksum analogue) and rejects the
	// operation.
	SiteWireCorrupt

	// NumSites is the number of injection sites.
	NumSites int = iota
)

var siteNames = [NumSites]string{
	"memloader",
	"memwriter",
	"stack_spill",
	"arena",
	"rocc_timeout",
	"wire_corrupt",
}

// siteCounterNames holds each site's two telemetry counter names,
// "<site>/trials" and "<site>/injected", built once for CollectTelemetry.
var siteCounterNames = func() (names [NumSites][2]string) {
	for i, s := range siteNames {
		names[i] = [2]string{s + "/trials", s + "/injected"}
	}
	return names
}()

// String returns the stable lower_snake name of the site (used in
// telemetry counter names and the -faults site list).
func (s Site) String() string {
	if s < 0 || int(s) >= NumSites {
		return fmt.Sprintf("site(%d)", int(s))
	}
	return siteNames[s]
}

// ParseSite resolves a site name produced by Site.String.
func ParseSite(name string) (Site, error) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown site %q", name)
}

// Class is the recovery taxonomy of a fault.
type Class int

const (
	// ClassTransient faults (access faults, spill failures, queue
	// timeouts) are expected to succeed on retry: the OS services the page
	// fault, the queue drains. The dispatch layer retries them with
	// bounded, cycle-charged backoff.
	ClassTransient Class = iota
	// ClassPermanent faults (arena exhaustion, corrupted wire bytes) will
	// fail the same way every time on the accelerator; the dispatch layer
	// goes straight to the software fallback path.
	ClassPermanent
)

// String returns "transient" or "permanent".
func (c Class) String() string {
	if c == ClassPermanent {
		return "permanent"
	}
	return "transient"
}

// Classify maps a site to its recovery class.
func Classify(s Site) Class {
	switch s {
	case SiteArena, SiteWireCorrupt:
		return ClassPermanent
	default:
		return ClassTransient
	}
}

// Fault is the typed error an injection site produces. It records which
// site fired and the per-site sequence number of the firing trial, so an
// episode is reproducible and debuggable from the error alone.
type Fault struct {
	Site Site
	Seq  uint64 // per-site trial index (1-based) at which the fault fired
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("injected %s fault at site %s (trial %d)", Classify(f.Site), f.Site, f.Seq)
}

// Class returns the recovery class of the fault.
func (f *Fault) Class() Class { return Classify(f.Site) }

// AsFault extracts a *Fault from an error chain, or returns nil.
func AsFault(err error) *Fault {
	var f *Fault
	if errors.As(err, &f) {
		return f
	}
	return nil
}

// Config selects a fault schedule. The zero value disables injection.
// All fields are plain comparable values so a Config can participate in
// the typed pool-key fingerprint of core.Config.
type Config struct {
	// Enabled turns injection on.
	Enabled bool
	// Seed selects the deterministic schedule.
	Seed uint64
	// Rate is the per-trial fault probability in [0, 1].
	Rate float64
	// Sites restricts injection to a comma-separated list of site names
	// (Site.String values). Empty means every site.
	Sites string
}

// mask returns the enabled-site bitmask of the config. An empty Sites
// string means every site; a non-empty list must name at least one site
// per element — empty elements (doubled or trailing commas) are rejected
// rather than skipped, so a typo cannot silently widen or narrow the
// schedule.
func (c Config) mask() (uint32, error) {
	if c.Sites == "" {
		return 1<<uint(NumSites) - 1, nil
	}
	var m uint32
	for _, name := range strings.Split(c.Sites, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return 0, fmt.Errorf("faults: empty site name in list %q (stray comma?)", c.Sites)
		}
		s, err := ParseSite(name)
		if err != nil {
			return 0, err
		}
		m |= 1 << uint(s)
	}
	return m, nil
}

// ParseFlag parses the -faults command-line spec into a Config:
//
//	""            injection disabled (the default)
//	"off"         injection disabled, explicitly
//	"0.01"        every site faults with probability 0.01
//	"0.01@arena,rocc_timeout"
//	              only the named sites fault (names from SiteNames)
//
// seed is the value of the companion -fault-seed flag; it is recorded even
// for a disabled config so the zero-rate schedule stays reproducible.
func ParseFlag(spec string, seed uint64) (Config, error) {
	cfg := Config{Seed: seed}
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return cfg, nil
	}
	rateStr, sites, hasSites := strings.Cut(spec, "@")
	rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
	if err != nil {
		return cfg, fmt.Errorf("faults: bad rate in spec %q: %v", spec, err)
	}
	cfg.Enabled = true
	cfg.Rate = rate
	if hasSites {
		cfg.Sites = strings.TrimSpace(sites)
		if cfg.Sites == "" {
			// "0.1@" would otherwise fall through to the empty-Sites
			// "every site" default — the opposite of what a trailing @
			// plausibly meant.
			return Config{Seed: seed}, fmt.Errorf("faults: empty site list in spec %q (drop the @ to fault every site)", spec)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{Seed: seed}, err
	}
	return cfg, nil
}

// RegisterFlags binds -faults (a ParseFlag spec) and -fault-seed
// (default 1) into c. Each sets only its own fields, so the two may be
// given in either order.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.Var((*specFlag)(c), "faults", "fault injection: RATE or RATE@site,... (sites: "+strings.Join(SiteNames(), ",")+"); empty or \"off\" disables")
	fs.Uint64Var(&c.Seed, "fault-seed", 1, "seed of the deterministic fault schedule")
}

// specFlag is the -faults flag.Value over a Config.
type specFlag Config

func (f *specFlag) String() string {
	if f == nil || !f.Enabled {
		return ""
	}
	spec := strconv.FormatFloat(f.Rate, 'g', -1, 64)
	if f.Sites != "" {
		spec += "@" + f.Sites
	}
	return spec
}

func (f *specFlag) Set(spec string) error {
	cfg, err := ParseFlag(spec, f.Seed)
	if err != nil {
		return err
	}
	*f = specFlag(cfg)
	return nil
}

// Validate checks the config without building an injector.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if math.IsNaN(c.Rate) || c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("faults: rate %v outside [0, 1]", c.Rate)
	}
	_, err := c.mask()
	return err
}

// SiteNames returns every site name in site order (for -faults help text).
func SiteNames() []string {
	out := make([]string, NumSites)
	copy(out, siteNames[:])
	return out
}

// Injector draws per-site Bernoulli trials from a seeded splitmix64
// stream. A nil *Injector is valid and never fires — units check nothing,
// they just call At. Injector is not safe for concurrent use; each System
// owns its own (matching the one-goroutine-per-System simulation model).
type Injector struct {
	cfg       Config
	mask      uint32
	threshold uint64 // fault iff next draw < threshold
	state     uint64 // splitmix64 state
	trials    [NumSites]uint64
	injected  [NumSites]uint64
	faults    [NumSites]*Fault // preallocated; reused so At never allocates
}

// New builds an injector for the config. A disabled config returns a
// valid injector that never fires (callers that want the nil fast path
// should check Config.Enabled themselves).
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{cfg: cfg}
	if cfg.Enabled {
		m, err := cfg.mask()
		if err != nil {
			return nil, err
		}
		inj.mask = m
		inj.threshold = rateThreshold(cfg.Rate)
	}
	for i := range inj.faults {
		inj.faults[i] = &Fault{Site: Site(i)}
	}
	inj.state = seedState(cfg.Seed)
	return inj, nil
}

// rateThreshold converts a probability to a uint64 comparison threshold.
func rateThreshold(rate float64) uint64 {
	switch {
	case rate <= 0:
		return 0
	case rate >= 1:
		return ^uint64(0)
	default:
		return uint64(rate * float64(1<<63) * 2)
	}
}

// seedState whitens the user seed so nearby seeds give unrelated streams.
func seedState(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next is splitmix64.
func (inj *Injector) next() uint64 {
	inj.state += 0x9e3779b97f4a7c15
	z := inj.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Enabled reports whether the injector can ever fire.
func (inj *Injector) Enabled() bool {
	return inj != nil && inj.cfg.Enabled && inj.mask != 0 && inj.threshold != 0
}

// At records one trial at the site and returns a *Fault if the schedule
// says this trial faults, nil otherwise. Nil-receiver-safe; a disabled
// injector is a single branch. At never allocates.
func (inj *Injector) At(site Site) error {
	if inj == nil || !inj.cfg.Enabled {
		return nil
	}
	if site < 0 || int(site) >= NumSites || inj.mask&(1<<uint(site)) == 0 {
		return nil
	}
	inj.trials[site]++
	if inj.next() >= inj.threshold {
		return nil
	}
	inj.injected[site]++
	f := inj.faults[site]
	f.Seq = inj.trials[site]
	return f
}

// Trials returns the number of trials recorded at the site.
func (inj *Injector) Trials(site Site) uint64 {
	if inj == nil {
		return 0
	}
	return inj.trials[site]
}

// Injected returns the number of faults fired at the site.
func (inj *Injector) Injected(site Site) uint64 {
	if inj == nil {
		return 0
	}
	return inj.injected[site]
}

// TotalInjected returns the number of faults fired across all sites.
func (inj *Injector) TotalInjected() uint64 {
	if inj == nil {
		return 0
	}
	var n uint64
	for _, v := range inj.injected {
		n += v
	}
	return n
}

// Config returns the injector's configuration.
func (inj *Injector) Config() Config {
	if inj == nil {
		return Config{}
	}
	return inj.cfg
}

// Reset rewinds the injector to its post-construction state: the stream
// is reseeded and every trial/injected counter zeroed, so a pooled System
// replays the identical fault schedule a fresh one would.
func (inj *Injector) Reset() {
	if inj == nil {
		return
	}
	inj.state = seedState(inj.cfg.Seed)
	for i := range inj.trials {
		inj.trials[i] = 0
		inj.injected[i] = 0
	}
}

// CollectTelemetry implements telemetry.Collector: per-site trial and
// injected counts, in site order, with a stable shape whether or not the
// injector is enabled.
func (inj *Injector) CollectTelemetry(emit func(name string, value float64)) {
	for i := 0; i < NumSites; i++ {
		emit(siteCounterNames[i][0], float64(inj.trials[i]))
		emit(siteCounterNames[i][1], float64(inj.injected[i]))
	}
}

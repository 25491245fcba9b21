package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"protoacc/internal/serve/elements"
)

// healthDoc is the slice of a protoaccd /healthz document the balancer
// cares about: overall status and per-tile degradation and breaker
// state. Decoding a local struct (rather than importing the daemon's)
// keeps the poller tolerant of daemon versions that add fields.
type healthDoc struct {
	Status string `json:"status"`
	Tiles  []struct {
		Degraded bool   `json:"degraded"`
		Breaker  string `json:"breaker"` // empty when the daemon runs no breaker element
	} `json:"tiles"`
}

// Fixed /healthz polling parameters: one request's timeout, the most
// body bytes a poll decodes, the consecutive sick reports that eject a
// node, and the consecutive clean reports that restore an ejected one.
// A real report is small (19 KB for 64 tiles with the breaker on), so a
// body past maxHealthBody fails its poll, which counts as sick.
const (
	healthTimeout = time.Second
	maxHealthBody = 1 << 20
	sickPolls     = 2
	healthyPolls  = 2
)

// healthPoller polls every node's /healthz on a fixed interval and
// drives the sick/healthy side of each node's circuit. Transport errors
// on the data path drive the other side; both funnel into the same
// per-node circuit.
type healthPoller struct {
	b      *Balancer
	client *http.Client
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func startHealthPoller(b *Balancer) *healthPoller {
	p := &healthPoller{
		b:      b,
		client: &http.Client{Timeout: healthTimeout},
		stopCh: make(chan struct{}),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

func (p *healthPoller) stop() {
	close(p.stopCh)
	p.wg.Wait()
}

func (p *healthPoller) run() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.b.opts.Health.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-ticker.C:
			for _, n := range p.b.nodes {
				if n.adminAddr == "" {
					continue
				}
				p.poll(n)
			}
		}
	}
}

// poll fetches one node's /healthz and classifies it. A report is sick
// when its status is not "ok", when it lists tiles and every one is
// degraded, or when a degraded tile reports no breaker state. A daemon
// routes around a degraded tile itself only through its tile breaker;
// without that element it keeps sending the tile its share, so the node
// must leave the pool.
func (p *healthPoller) poll(n *node) {
	doc, err := p.fetch(n.adminAddr)
	if err != nil {
		n.notePoll(true)
		return
	}
	sick, serving := doc.Status != "ok", 0
	for _, t := range doc.Tiles {
		switch {
		case !t.Degraded:
			serving++
		case t.Breaker == "":
			sick = true
		}
	}
	n.notePoll(sick || len(doc.Tiles) > 0 && serving == 0)
}

func (p *healthPoller) fetch(adminAddr string) (*healthDoc, error) {
	resp, err := p.client.Get("http://" + adminAddr + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: healthz status %d", resp.StatusCode)
	}
	var doc healthDoc
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxHealthBody)).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// notePoll folds one /healthz classification into the node's circuit:
// sickPolls consecutive sick reports eject a closed node, healthyPolls
// consecutive clean reports restore an open or half-open one (without
// spending a probe request on it).
func (n *node) notePoll(sick bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if sick {
		n.consecSick++
		n.consecWell = 0
		if n.circuit.State() == elements.StateClosed && n.consecSick >= sickPolls {
			n.ejectLocked()
		}
		return
	}
	n.consecSick = 0
	n.consecWell++
	if n.circuit.State() != elements.StateClosed && n.consecWell >= healthyPolls {
		n.restoreLocked()
	}
}

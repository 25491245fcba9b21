package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"protoacc/internal/serve/elements"
)

// healthDoc is the slice of a protoaccd /healthz document the balancer
// cares about: overall status and per-tile degradation. Decoding a local
// struct (rather than importing the daemon's) keeps the poller tolerant
// of daemon versions that add fields.
type healthDoc struct {
	Status string `json:"status"`
	Tiles  []struct {
		Degraded bool `json:"degraded"`
	} `json:"tiles"`
}

// Fixed /healthz polling parameters: one request's timeout, and how many
// degraded tiles in a report mark the node sick (any).
const (
	healthTimeout = time.Second
	degradedTiles = 1
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

// poll fetches one node's /healthz and classifies it.
func (p *healthPoller) poll(n *node) {
	sick := true
	doc, err := p.fetch(n.adminAddr)
	if err == nil {
		degraded := 0
		for _, t := range doc.Tiles {
			if t.Degraded {
				degraded++
			}
		}
		sick = doc.Status != "ok" || degraded >= degradedTiles
	}
	n.notePoll(sick)
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
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// notePoll folds one /healthz classification into the node's circuit:
// SickPolls consecutive sick reports eject a closed node, HealthyPolls
// consecutive clean reports restore an open or half-open one (without
// spending a probe request on it).
func (n *node) notePoll(sick bool) {
	h := n.b.opts.Health
	n.mu.Lock()
	defer n.mu.Unlock()
	if sick {
		n.consecSick++
		n.consecWell = 0
		if n.circuit.State() == elements.StateClosed && n.consecSick >= h.SickPolls {
			n.ejectLocked()
		}
		return
	}
	n.consecSick = 0
	n.consecWell++
	if n.circuit.State() != elements.StateClosed && n.consecWell >= h.HealthyPolls {
		n.restoreLocked()
	}
}

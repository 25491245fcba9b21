// Cluster mode: loadgen as the client of a disaggregated accelerator
// pool. -cluster points the balancer at already-running daemons.
package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"protoacc/internal/serve"
	"protoacc/internal/serve/cluster"
)

// parseAddrList splits a comma list of host:port entries.
func parseAddrList(flagName, s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("loadgen: empty address in %s %q (stray comma?)", flagName, s)
		}
		out = append(out, part)
	}
	return out, nil
}

// clusterOptions assembles the balancer configuration from the -cluster
// flag family. Health polling turns on iff -cluster-admin is given.
func clusterOptions(addrs, admins string) (cluster.Options, error) {
	list, err := parseAddrList("-cluster", addrs)
	if err != nil {
		return cluster.Options{}, err
	}
	opts := cluster.Options{
		Addrs: list,
		// A bounded wait keeps a wedged daemon from pinning loadgen
		// workers forever; the balancer fails over on the timeout.
		Dial: serve.DialOptions{Timeout: 10 * time.Second},
	}
	if admins != "" {
		alist, err := parseAddrList("-cluster-admin", admins)
		if err != nil {
			return cluster.Options{}, err
		}
		if len(alist) != len(list) {
			return cluster.Options{}, fmt.Errorf("loadgen: -cluster-admin lists %d addresses for %d -cluster nodes", len(alist), len(list))
		}
		opts.AdminAddrs = alist
		opts.Health.Interval = 200 * time.Millisecond
	}
	return opts, nil
}

// printClusterStats prints the balancer's view of the run: pool-level
// failover/ejection accounting, then each node's share.
func printClusterStats(w io.Writer, b *cluster.Balancer) {
	c := b.Counters()
	fmt.Fprintf(w, "cluster: %d nodes  requests=%.0f retries=%.0f ejections=%.0f recoveries=%.0f\n",
		b.Nodes(), c["serve/cluster/requests"], c["serve/cluster/retries"], c["serve/cluster/ejections"], c["serve/cluster/recoveries"])
	for i, n := range b.NodeStats() {
		state := ""
		if n.Ejected {
			state = "  [ejected]"
		}
		fmt.Fprintf(w, "  node%d %s: req=%d ok=%d err=%d fellback=%d ejections=%d redials=%d%s\n",
			i, n.Addr, n.Requests, n.OKs, n.Errors, n.Fallbacks, n.Ejections, n.Redials, state)
	}
}

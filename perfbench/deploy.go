package main

import (
	"fmt"
	"time"

	"abase"
	"abase/internal/clock"
	"abase/internal/lavastore"
	"abase/internal/resp"
)

// The deployment under test is cmd/abase-server's, with exactly two
// deviations (parity_test.go pins this):
//
//  1. QuotaRU is high enough that nothing is throttled, so every reply
//     is a served one (a throttled or shed reply counts as an error).
//  2. NodeCacheBytes is 16 MiB instead of the 64 MiB default, so
//     cold-mixed's ~100 MiB working set is over 6x each node's SA-LRU
//     while the whole run fits in a few GiB.
//
// Cost, AdmitCost and WFQ stay unset: the server sleeps the default
// simulated service times on every DataNode op, so the benchmark times
// them too. Storage is the default in-memory FS, and LavaStore runs
// with SyncWrites off (periodic durability), the server's flush policy.
const (
	tenantName     = "default"
	benchQuotaRU   = 1e9
	benchNodeCache = 16 << 20
	monitorEvery   = 2 * time.Second
)

func clusterConfig() abase.ClusterConfig {
	return abase.ClusterConfig{Nodes: 3, Replicas: 3, NodeCacheBytes: benchNodeCache}
}

func tenantSpec() abase.TenantSpec {
	return abase.TenantSpec{Name: tenantName, QuotaRU: benchQuotaRU, Partitions: 4, Proxies: 2}
}

// deployment is a running cluster served over RESP on loopback, with
// the server's traffic monitor ticking.
type deployment struct {
	cluster *abase.Cluster
	tenant  *abase.Tenant
	srv     *resp.Server
	addr    string
	stop    chan struct{}
	done    chan struct{}
}

// startDeployment starts the cluster the way cmd/abase-server does.
// clk and fs are nil except in the traced run, which injects counting
// wrappers through the public config.
func startDeployment(clk clock.Clock, fs lavastore.FS) (*deployment, error) {
	cfg := clusterConfig()
	cfg.Clock, cfg.FS = clk, fs
	cluster, err := abase.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	tenant, err := cluster.CreateTenant(tenantSpec())
	if err != nil {
		cluster.Close()
		return nil, fmt.Errorf("create tenant: %w", err)
	}
	addr, srv, err := cluster.Serve("127.0.0.1:0", "")
	if err != nil {
		cluster.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	d := &deployment{cluster: cluster, tenant: tenant, srv: srv, addr: addr,
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		ticker := time.NewTicker(monitorEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				cluster.MonitorTrafficOnce(monitorEvery)
			case <-d.stop:
				return
			}
		}
	}()
	return d, nil
}

// Close stops the monitor, the server and the cluster, and waits for
// each.
func (d *deployment) Close() {
	close(d.stop)
	<-d.done
	d.srv.Close()
	d.cluster.Close()
}

// diskUsed sums every node's storage footprint.
func (d *deployment) diskUsed() int64 {
	var total int64
	for _, n := range d.cluster.Nodes() {
		total += n.Snapshot().DiskUsed
	}
	return total
}

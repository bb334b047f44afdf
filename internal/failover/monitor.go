package failover

import (
	"sync"
	"time"

	"gvrt/internal/resilience"
)

// DefaultMonitorInterval is the pause between lease-table scans.
const DefaultMonitorInterval = 250 * time.Millisecond

// MonitorConfig tunes a failover monitor.
type MonitorConfig struct {
	// Table is the shared lease table the monitor scans for expired
	// leases.
	Table *Table
	// Owner is the promoting node's name: stolen leases transfer to it.
	Owner string
	// Interval is the scan period; 0 means DefaultMonitorInterval.
	Interval time.Duration
	// Sleep advances between scans (the node's model clock).
	Sleep func(time.Duration)
	// Promote adopts one expired session onto the owner node. It runs
	// after the monitor stole the lease, so the dead owner is already
	// fenced; an error leaves the lease with the monitor's owner and is
	// retried on a later scan, after backoff.
	Promote func(session int64) error
	// Limit, when set, is the migration storm limiter: one token per
	// promotion attempt. A flapping node that expires dozens of leases
	// at once drains the bucket and the overflow waits for refill
	// instead of melting the cluster with concurrent image transfers.
	Limit *resilience.Budget
	// Backoff, when set, spaces retries after a failed promotion
	// (decorrelated jitter, reset on success).
	Backoff *resilience.Backoff
	// OnPromote, when set, observes every promotion attempt's outcome
	// (counters, tests).
	OnPromote func(session int64, err error)
}

// Monitor watches the lease table and promotes this node for every
// session whose owner's lease expired — the cluster health monitor's
// failover arm.
type Monitor struct {
	cfg  MonitorConfig
	quit chan struct{}
	stop sync.Once
	wg   sync.WaitGroup

	mu       sync.Mutex
	promoted int64
	failed   int64
	limited  int64
}

// StartMonitor launches the monitor goroutine.
func StartMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultMonitorInterval
	}
	m := &Monitor{cfg: cfg, quit: make(chan struct{})}
	m.wg.Add(1)
	go m.run()
	return m
}

// Stop shuts the monitor down and waits for the scan loop to exit.
func (m *Monitor) Stop() {
	m.stop.Do(func() { close(m.quit) })
	m.wg.Wait()
}

// Counts reports promotions succeeded, failed, and storm-limited.
func (m *Monitor) Counts() (promoted, failed, limited int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.promoted, m.failed, m.limited
}

func (m *Monitor) run() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		default:
		}
		m.cfg.Sleep(m.cfg.Interval)
		select {
		case <-m.quit:
			return
		default:
		}
		m.scan()
	}
}

func (m *Monitor) scan() {
	for _, session := range m.cfg.Table.Expired() {
		if m.cfg.Limit != nil && !m.cfg.Limit.TrySpend() {
			m.mu.Lock()
			m.limited++
			m.mu.Unlock()
			continue
		}
		if _, err := m.cfg.Table.Steal(session, m.cfg.Owner); err != nil {
			// The owner renewed between Expired and Steal — the
			// lease-expiry race resolved in its favour; nothing to do.
			continue
		}
		err := m.cfg.Promote(session)
		if m.cfg.OnPromote != nil {
			m.cfg.OnPromote(session, err)
		}
		m.mu.Lock()
		if err != nil {
			m.failed++
		} else {
			m.promoted++
		}
		m.mu.Unlock()
		if err != nil {
			if m.cfg.Backoff != nil {
				m.cfg.Sleep(m.cfg.Backoff.Next())
			}
			continue
		}
		if m.cfg.Backoff != nil {
			m.cfg.Backoff.Reset()
		}
	}
}

package ctrlplane

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gvrt/internal/faultinject"
	"gvrt/internal/trace"
)

// Hooks is the runtime surface the control plane drives. Every method
// MUST be idempotent: a resumed operation re-runs its steps from the
// beginning, so applying a quota that is already applied or draining a
// device that is already drained must succeed as a no-op. The core
// runtime implements this interface (core.Runtime); tests substitute
// fakes.
type Hooks interface {
	// ApplyQuota installs or updates a tenant's enforcement limits: its
	// session cap where a session announces its tenant, and its byte cap
	// on the memory-manager path.
	ApplyQuota(tenant string, maxSessions int, hostBytes uint64) error
	// RemoveQuota lifts a tenant's limits.
	RemoveQuota(tenant string) error
	// DrainDevice evacuates every session from the device (checkpoint
	// to swap, rebind elsewhere) and removes it from scheduling.
	DrainDevice(id int) error
	// ReadmitDevice returns a drained device to scheduling.
	ReadmitDevice(id int) error
	// DeviceCount reports how many devices the runtime owns.
	DeviceCount() int
}

// ManagerOptions tunes a Manager.
type ManagerOptions struct {
	// Hooks is the runtime the control plane drives. Required.
	Hooks Hooks
	// Faults, when set, arms the per-step crash point
	// (faultinject.PointCtrlOpStep): the hook is consulted once at every
	// step boundary of every operation, so an occurrence-indexed rule
	// (AtNth) selects exactly which boundary kills the daemon.
	Faults *faultinject.Plane
	// OnCrash is invoked when the step crash point fires (daemons
	// install ckptlog.Die).
	OnCrash func()
	// Trace, when set, receives one KindCtrlOp event per operation
	// transition (started, completed, resumed, rolled-back, stuck).
	Trace *trace.Recorder
	// Now supplies event timestamps for Trace (model time). Nil uses
	// wall-clock time since manager creation.
	Now func() time.Duration
	// DisableResume makes boot-time resolution mark every pending
	// operation stuck instead of resuming or rolling it back. Torture
	// harnesses use it to exercise the stuck-op/cleanup path
	// deterministically; operators would use it to inspect a crashed
	// mutation before letting the daemon touch it.
	DisableResume bool
	// Logf, when set, receives the same operation events as Trace, one
	// line each.
	Logf func(format string, args ...any)
}

// Counters is a snapshot of the manager's operation counters.
type Counters struct {
	Started    int64 `json:"started"`
	Completed  int64 `json:"completed"`
	Resumed    int64 `json:"resumed"`
	RolledBack int64 `json:"rolled_back"`
	Stuck      int64 `json:"stuck"`
	Cleaned    int64 `json:"cleaned"`
}

// Manager executes control-plane mutations as journaled pending
// operations over a Store. One mutex serialises all mutations — quota
// updates and a drain racing on the same device serialise here, and the
// store's WAL gives them a total order on disk too.
type Manager struct {
	store *Store
	opts  ManagerOptions
	step  *faultinject.Hook
	start time.Time

	mu     sync.Mutex
	nextID uint64

	started    atomic.Int64
	completed  atomic.Int64
	resumed    atomic.Int64
	rolledBack atomic.Int64
	stuck      atomic.Int64
	cleaned    atomic.Int64

	// OpDur observes completed-operation durations in nanoseconds,
	// exported under /metrics as gvrt_ctrl_op_duration.
	opDur trace.Histogram
}

// NewManager builds a Manager over an open store.
func NewManager(store *Store, opts ManagerOptions) *Manager {
	m := &Manager{store: store, opts: opts, start: time.Now()}
	m.step = opts.Faults.Hook(faultinject.PointCtrlOpStep, "")
	// Seed the ID allocator past every op ever recorded, including ones
	// a previous run left behind.
	for _, kv := range store.List(KeyOpPrefix) {
		if id, ok := ParseOpKey(kv.Key); ok && id >= m.nextID {
			m.nextID = id + 1
		}
	}
	if m.nextID == 0 {
		m.nextID = 1
	}
	return m
}

// Store returns the manager's backing store.
func (m *Manager) Store() *Store { return m.store }

// CountersSnapshot returns the manager's operation counters.
func (m *Manager) CountersSnapshot() Counters {
	return Counters{
		Started:    m.started.Load(),
		Completed:  m.completed.Load(),
		Resumed:    m.resumed.Load(),
		RolledBack: m.rolledBack.Load(),
		Stuck:      m.stuck.Load(),
		Cleaned:    m.cleaned.Load(),
	}
}

// OpDurations returns a snapshot of the completed-op duration
// histogram (nanoseconds).
func (m *Manager) OpDurations() trace.HistSnapshot { return m.opDur.Snapshot() }

func (m *Manager) now() time.Duration {
	if m.opts.Now != nil {
		return m.opts.Now()
	}
	return time.Since(m.start)
}

// event is the manager's one reporter: it hands an operation
// transition to Trace and Logf, whichever are set.
func (m *Manager) event(op *Op, outcome string) {
	if m.opts.Trace == nil && m.opts.Logf == nil {
		return
	}
	dev := -1
	if op.Kind == OpDeviceDrain || op.Kind == OpDeviceReadmit {
		dev = op.Device
	}
	detail := fmt.Sprintf("op %d %s %s", op.ID, op.Kind, outcome)
	if op.Tenant != "" {
		detail += " tenant=" + op.Tenant
	}
	e := trace.Event{Kind: trace.KindCtrlOp, Device: dev, Detail: detail}
	if m.opts.Trace != nil {
		e = m.opts.Trace.Record(e, m.now)
	} else {
		e.Time = m.now()
	}
	if m.opts.Logf != nil {
		m.opts.Logf("%v", e)
	}
}

// crashStep consults the per-step crash point. Called at every step
// boundary of every operation; an armed AtNth rule picks the boundary.
func (m *Manager) crashStep() {
	if m.step == nil {
		return
	}
	if m.step.Check().Crash && m.opts.OnCrash != nil {
		m.opts.OnCrash()
	}
}

// record commits a new pending-operation record (the durable intent)
// and returns it. First crash window: after this commit, before any
// side effect — boot resolution sees the op with Step 0.
func (m *Manager) record(op *Op) (*Op, error) {
	op.ID = m.nextID
	m.nextID++
	op.State = StatePending
	op.Seq = m.store.Seq() + 1 // all commits serialise under m.mu
	txn := &Txn{}
	txn.Put(OpKey(op.ID), encodeJSON(op))
	if op.Kind == OpDeviceDrain {
		// The device enters "draining" in the same transaction that
		// records the intent, so observers never see an unexplained
		// intermediate state.
		txn.Put(DeviceKey(op.Device), encodeJSON(DeviceRec{ID: op.Device, State: DeviceDraining}))
	}
	if err := m.store.Commit(txn); err != nil {
		return nil, err
	}
	m.started.Add(1)
	m.event(op, "started")
	return op, nil
}

// advance commits an op's step counter after a side-effecting step
// completed, so /ops shows progress and post-crash forensics can tell
// which step was in flight.
func (m *Manager) advance(op *Op) error {
	op.Step++
	return m.store.Commit((&Txn{}).Put(OpKey(op.ID), encodeJSON(op)))
}

// finish commits the op's terminal transaction: the resource mutations
// plus the deletion of the pending record, atomically. After this
// commit the operation is fully applied; before it, boot resolution
// still owns it.
func (m *Manager) finish(op *Op, txn *Txn, began time.Duration) error {
	txn.Delete(OpKey(op.ID))
	if err := m.store.Commit(txn); err != nil {
		return err
	}
	m.completed.Add(1)
	m.opDur.Observe(int64(m.now() - began))
	m.event(op, "completed")
	return nil
}

// --- Mutations -------------------------------------------------------

// CreateTenant registers a tenant. Fails if it already exists.
func (m *Manager) CreateTenant(name string) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("ctrlplane: tenant name required")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	began := m.now()
	if _, ok := m.store.Get(TenantKey(name)); ok {
		return nil, fmt.Errorf("ctrlplane: tenant %q exists", name)
	}
	op, err := m.record(&Op{Kind: OpTenantCreate, Tenant: name})
	if err != nil {
		return nil, err
	}
	m.crashStep() // boundary: intent recorded, nothing applied
	t := Tenant{Name: name, CreatedSeq: m.store.Seq()}
	if err := m.finish(op, (&Txn{}).Put(TenantKey(name), encodeJSON(t)), began); err != nil {
		return nil, err
	}
	m.crashStep() // boundary: fully applied
	return &t, nil
}

// DeleteTenant removes a tenant and its quota, lifting runtime
// enforcement.
func (m *Manager) DeleteTenant(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	began := m.now()
	if _, ok := m.store.Get(TenantKey(name)); !ok {
		return fmt.Errorf("ctrlplane: tenant %q not found", name)
	}
	op := &Op{Kind: OpTenantDelete, Tenant: name, PrevTenantExists: true}
	if raw, ok := m.store.Get(QuotaKey(name)); ok {
		var q Quota
		if err := decodeJSON(raw, &q); err == nil {
			op.PrevQuota = &q
		}
	}
	op, err := m.record(op)
	if err != nil {
		return err
	}
	m.crashStep() // boundary: intent recorded, enforcement still live
	if err := m.opts.Hooks.RemoveQuota(name); err != nil {
		return m.abort(op, began, err)
	}
	if err := m.advance(op); err != nil {
		return err
	}
	m.crashStep() // boundary: enforcement lifted, records still present
	txn := (&Txn{}).Delete(TenantKey(name)).Delete(QuotaKey(name))
	if err := m.finish(op, txn, began); err != nil {
		return err
	}
	m.crashStep()
	return nil
}

// SetQuota installs or updates a tenant's quota and applies it to the
// runtime's admission and memory paths.
func (m *Manager) SetQuota(tenant string, q Quota) (*Quota, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	began := m.now()
	if _, ok := m.store.Get(TenantKey(tenant)); !ok {
		return nil, fmt.Errorf("ctrlplane: tenant %q not found", tenant)
	}
	if q.MaxSessions < 0 {
		return nil, fmt.Errorf("ctrlplane: max_sessions must be >= 0")
	}
	q.Tenant = tenant
	op := &Op{Kind: OpQuotaSet, Tenant: tenant, Quota: &q}
	if raw, ok := m.store.Get(QuotaKey(tenant)); ok {
		var prev Quota
		if err := decodeJSON(raw, &prev); err == nil {
			op.PrevQuota = &prev
		}
	}
	op, err := m.record(op)
	if err != nil {
		return nil, err
	}
	m.crashStep() // boundary: intent recorded, old quota still enforced
	if err := m.opts.Hooks.ApplyQuota(tenant, q.MaxSessions, q.HostBytes); err != nil {
		return nil, m.abort(op, began, err)
	}
	if err := m.advance(op); err != nil {
		return nil, err
	}
	m.crashStep() // boundary: new quota enforced, record not yet durable
	if err := m.finish(op, (&Txn{}).Put(QuotaKey(tenant), encodeJSON(q)), began); err != nil {
		return nil, err
	}
	m.crashStep()
	return &q, nil
}

// DrainDevice evacuates a device's sessions (checkpoint to swap,
// rebind elsewhere — PR-8's migration machinery) and removes it from
// scheduling. The device record passes active → draining → drained.
func (m *Manager) DrainDevice(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	began := m.now()
	rec, err := m.deviceRec(id)
	if err != nil {
		return err
	}
	if rec.State != DeviceActive {
		return fmt.Errorf("ctrlplane: device %d is %s, not active", id, rec.State)
	}
	op, err := m.record(&Op{Kind: OpDeviceDrain, Device: id, PrevDeviceState: rec.State})
	if err != nil {
		return err
	}
	m.crashStep() // boundary: marked draining, sessions untouched
	if err := m.opts.Hooks.DrainDevice(id); err != nil {
		return m.abort(op, began, err)
	}
	if err := m.advance(op); err != nil {
		return err
	}
	m.crashStep() // boundary: evacuated, record still "draining"
	txn := (&Txn{}).Put(DeviceKey(id), encodeJSON(DeviceRec{ID: id, State: DeviceDrained}))
	if err := m.finish(op, txn, began); err != nil {
		return err
	}
	m.crashStep()
	return nil
}

// ReadmitDevice returns a drained device to scheduling.
func (m *Manager) ReadmitDevice(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	began := m.now()
	rec, err := m.deviceRec(id)
	if err != nil {
		return err
	}
	if rec.State != DeviceDrained {
		return fmt.Errorf("ctrlplane: device %d is %s, not drained", id, rec.State)
	}
	op, err := m.record(&Op{Kind: OpDeviceReadmit, Device: id, PrevDeviceState: rec.State})
	if err != nil {
		return err
	}
	m.crashStep() // boundary: intent recorded, device still out
	if err := m.opts.Hooks.ReadmitDevice(id); err != nil {
		return m.abort(op, began, err)
	}
	if err := m.advance(op); err != nil {
		return err
	}
	m.crashStep() // boundary: device serving, record still "drained"
	txn := (&Txn{}).Put(DeviceKey(id), encodeJSON(DeviceRec{ID: id, State: DeviceActive}))
	if err := m.finish(op, txn, began); err != nil {
		return err
	}
	m.crashStep()
	return nil
}

// abort rolls an in-flight op back after a hook error on the live
// (non-crash) path, returning the hook's error.
func (m *Manager) abort(op *Op, _ time.Duration, cause error) error {
	if err := m.rollbackLocked(op); err != nil {
		m.markStuckLocked(op, fmt.Errorf("%v (rollback: %v)", cause, err))
		return cause
	}
	m.rolledBack.Add(1)
	m.event(op, "rolled-back")
	return cause
}

// deviceRec loads a device record.
func (m *Manager) deviceRec(id int) (DeviceRec, error) {
	raw, ok := m.store.Get(DeviceKey(id))
	if !ok {
		return DeviceRec{}, fmt.Errorf("ctrlplane: device %d not found", id)
	}
	var rec DeviceRec
	if err := decodeJSON(raw, &rec); err != nil {
		return DeviceRec{}, err
	}
	return rec, nil
}

// --- Reads -----------------------------------------------------------

// GetTenant returns one tenant.
func (m *Manager) GetTenant(name string) (*Tenant, bool) {
	raw, ok := m.store.Get(TenantKey(name))
	if !ok {
		return nil, false
	}
	var t Tenant
	if decodeJSON(raw, &t) != nil {
		return nil, false
	}
	return &t, true
}

// Tenants lists all tenants, sorted by name.
func (m *Manager) Tenants() []Tenant {
	var out []Tenant
	for _, kv := range m.store.List(KeyTenantPrefix) {
		var t Tenant
		if decodeJSON(kv.Val, &t) == nil {
			out = append(out, t)
		}
	}
	return out
}

// GetQuota returns one tenant's quota.
func (m *Manager) GetQuota(tenant string) (*Quota, bool) {
	raw, ok := m.store.Get(QuotaKey(tenant))
	if !ok {
		return nil, false
	}
	var q Quota
	if decodeJSON(raw, &q) != nil {
		return nil, false
	}
	return &q, true
}

// Quotas lists all quotas.
func (m *Manager) Quotas() []Quota {
	var out []Quota
	for _, kv := range m.store.List(KeyQuotaPrefix) {
		var q Quota
		if decodeJSON(kv.Val, &q) == nil {
			out = append(out, q)
		}
	}
	return out
}

// Devices lists all device records.
func (m *Manager) Devices() []DeviceRec {
	var out []DeviceRec
	for _, kv := range m.store.List(KeyDevicePrefix) {
		var d DeviceRec
		if decodeJSON(kv.Val, &d) == nil {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Ops lists pending and stuck operations, oldest first.
func (m *Manager) Ops() []Op {
	var out []Op
	for _, kv := range m.store.List(KeyOpPrefix) {
		var op Op
		if decodeJSON(kv.Val, &op) == nil {
			out = append(out, op)
		}
	}
	return out
}

// --- Boot resolution -------------------------------------------------

// Resume resolves every operation a previous run left pending: it is
// called once at boot, after the store opens and before the daemon
// serves traffic. Forward-safe kinds (quota-set, device-drain,
// device-readmit — the full intent is in the record and every step is
// idempotent) are resumed to completion; ack-gated kinds
// (tenant-create, tenant-delete — the client never saw a success, so
// the least surprising outcome is "it didn't happen") are rolled back.
// An op whose resolution fails — or every op, when DisableResume is
// set — is marked stuck: its resources stay quarantined (a draining
// device stays out of scheduling) until an operator forces rollback
// through the cleanup endpoint.
func (m *Manager) Resume() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range m.Ops() {
		op := op
		if op.State == StateStuck {
			continue // already quarantined; waits for cleanup
		}
		if m.opts.DisableResume {
			m.markStuckLocked(&op, fmt.Errorf("resume disabled at boot"))
			continue
		}
		var err error
		switch op.Kind {
		case OpQuotaSet, OpDeviceDrain, OpDeviceReadmit:
			err = m.resumeForwardLocked(&op)
		case OpTenantCreate, OpTenantDelete:
			err = m.rollbackLocked(&op)
			if err == nil {
				m.rolledBack.Add(1)
				m.event(&op, "rolled-back")
			}
		default:
			err = fmt.Errorf("unknown op kind %q", op.Kind)
		}
		if err != nil {
			m.markStuckLocked(&op, err)
		}
	}
	return nil
}

// resumeForwardLocked re-executes a forward-safe op from the top. The
// hooks are idempotent, so steps that ran before the crash are
// harmless no-ops.
func (m *Manager) resumeForwardLocked(op *Op) error {
	began := m.now()
	var txn *Txn
	switch op.Kind {
	case OpQuotaSet:
		if op.Quota == nil {
			return fmt.Errorf("quota-set op %d has no target quota", op.ID)
		}
		if err := m.opts.Hooks.ApplyQuota(op.Tenant, op.Quota.MaxSessions, op.Quota.HostBytes); err != nil {
			return err
		}
		txn = (&Txn{}).Put(QuotaKey(op.Tenant), encodeJSON(*op.Quota))
	case OpDeviceDrain:
		if err := m.opts.Hooks.DrainDevice(op.Device); err != nil {
			return err
		}
		txn = (&Txn{}).Put(DeviceKey(op.Device), encodeJSON(DeviceRec{ID: op.Device, State: DeviceDrained}))
	case OpDeviceReadmit:
		if err := m.opts.Hooks.ReadmitDevice(op.Device); err != nil {
			return err
		}
		txn = (&Txn{}).Put(DeviceKey(op.Device), encodeJSON(DeviceRec{ID: op.Device, State: DeviceActive}))
	}
	if err := m.finish(op, txn, began); err != nil {
		return err
	}
	m.resumed.Add(1)
	m.event(op, "resumed")
	return nil
}

// rollbackLocked undoes an op's observable effects and deletes its
// record, restoring the pre-op state captured when it was recorded.
func (m *Manager) rollbackLocked(op *Op) error {
	txn := &Txn{}
	switch op.Kind {
	case OpTenantCreate:
		// The tenant record is written only in the op's final (atomic)
		// transaction, which also deletes the op — so a pending create
		// has, by construction, applied nothing. Defensively delete the
		// record anyway.
		txn.Delete(TenantKey(op.Tenant))
	case OpTenantDelete:
		// The store records survived (they are deleted only in the final
		// txn); re-assert runtime enforcement, which the crashed run may
		// have lifted.
		if op.PrevQuota != nil {
			if err := m.opts.Hooks.ApplyQuota(op.Tenant, op.PrevQuota.MaxSessions, op.PrevQuota.HostBytes); err != nil {
				return err
			}
		}
	case OpQuotaSet:
		// Restore the previous enforcement (or lift it if there was
		// none); the store's quota record was never overwritten.
		if op.PrevQuota != nil {
			if err := m.opts.Hooks.ApplyQuota(op.Tenant, op.PrevQuota.MaxSessions, op.PrevQuota.HostBytes); err != nil {
				return err
			}
		} else if err := m.opts.Hooks.RemoveQuota(op.Tenant); err != nil {
			return err
		}
	case OpDeviceDrain:
		// Undo a partial drain by readmitting (idempotent: if the drain
		// never ran, readmit restores scheduling state that was never
		// torn down).
		if err := m.opts.Hooks.ReadmitDevice(op.Device); err != nil {
			return err
		}
		txn.Put(DeviceKey(op.Device), encodeJSON(DeviceRec{ID: op.Device, State: DeviceActive}))
	case OpDeviceReadmit:
		if err := m.opts.Hooks.DrainDevice(op.Device); err != nil {
			return err
		}
		txn.Put(DeviceKey(op.Device), encodeJSON(DeviceRec{ID: op.Device, State: DeviceDrained}))
	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
	txn.Delete(OpKey(op.ID))
	return m.store.Commit(txn)
}

// markStuckLocked quarantines an op: state recorded as stuck with the
// failure, resources left exactly as the crash left them, awaiting an
// operator's cleanup.
func (m *Manager) markStuckLocked(op *Op, cause error) {
	op.State = StateStuck
	op.Err = cause.Error()
	if err := m.store.Commit((&Txn{}).Put(OpKey(op.ID), encodeJSON(op))); err != nil {
		m.event(op, "stuck, not recorded: "+err.Error())
		return
	}
	m.stuck.Add(1)
	m.event(op, "stuck: "+op.Err)
}

// --- Cleanup ---------------------------------------------------------

// CleanupOp force-rolls-back one stuck (or pending) operation,
// restoring the pre-op state and releasing its quarantined resources.
func (m *Manager) CleanupOp(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cleanupLocked(id)
}

// CleanupOps force-rolls-back every listed operation, returning the
// number cleaned and the first error.
func (m *Manager) CleanupOps() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int
	var firstErr error
	for _, op := range m.Ops() {
		if err := m.cleanupLocked(op.ID); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	return n, firstErr
}

func (m *Manager) cleanupLocked(id uint64) error {
	raw, ok := m.store.Get(OpKey(id))
	if !ok {
		return fmt.Errorf("ctrlplane: op %d not found", id)
	}
	var op Op
	if err := decodeJSON(raw, &op); err != nil {
		return err
	}
	if err := m.rollbackLocked(&op); err != nil {
		return fmt.Errorf("ctrlplane: cleaning op %d (%s): %w", id, op.Kind, err)
	}
	m.cleaned.Add(1)
	m.rolledBack.Add(1)
	m.event(&op, "cleaned")
	return nil
}

// --- Boot sync -------------------------------------------------------

// SyncDevices reconciles device membership with the runtime: a record
// is created (active) for every device the runtime owns that the store
// has never seen. Existing records keep their state — a drained device
// stays drained across restarts.
func (m *Manager) SyncDevices() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	txn := &Txn{}
	n := m.opts.Hooks.DeviceCount()
	for id := 0; id < n; id++ {
		if _, ok := m.store.Get(DeviceKey(id)); !ok {
			txn.Put(DeviceKey(id), encodeJSON(DeviceRec{ID: id, State: DeviceActive}))
		}
	}
	return m.store.Commit(txn)
}

// RegisterNode records this node's membership.
func (m *Manager) RegisterNode(name string, devices int) error {
	if name == "" {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store.Commit((&Txn{}).Put(NodeKey(name), encodeJSON(NodeRec{Name: name, Devices: devices})))
}

// ApplyStored pushes the store's committed state into a freshly booted
// runtime: every quota is re-applied to the enforcement paths and
// every drained device is re-drained (the runtime boots with all
// devices active). Called after Resume so resolved state wins.
func (m *Manager) ApplyStored() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var firstErr error
	for _, q := range m.Quotas() {
		if err := m.opts.Hooks.ApplyQuota(q.Tenant, q.MaxSessions, q.HostBytes); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("ctrlplane: re-applying quota for %q: %w", q.Tenant, err)
		}
	}
	for _, d := range m.Devices() {
		if d.State == DeviceDrained {
			if err := m.opts.Hooks.DrainDevice(d.ID); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("ctrlplane: re-draining device %d: %w", d.ID, err)
			}
		}
	}
	return firstErr
}

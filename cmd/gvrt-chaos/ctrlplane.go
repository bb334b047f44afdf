// Control-plane torture mode: a daemon child that owns a transactional
// control-plane store and serves the operator REST surface is SIGKILLed
// mid-mutation at an armed crash point (between op steps, pre-fsync,
// post-fsync, mid-store-compaction). A fresh child recovers the store
// directory and the parent audits it field by field over REST: every
// mutation must be fully applied or fully rolled back — no quota with
// mismatched fields, no tenant half-deleted, no device stranded
// "draining" after boot resolution ran. A resume-disabled scenario
// proves the stuck-op path: pending operations surface under /ops as
// "stuck" and the REST cleanup endpoint rolls every one back.
//
//	gvrt-chaos -ctrlplane                     # default 5 rounds
//	GVRT_CHAOS_SEED=7 gvrt-chaos -ctrlplane   # replay a seeded schedule
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"gvrt/internal/ctrlplane"
	"gvrt/internal/faultinject"
)

// ctrlTenants is the tenant set every round's mutation script creates.
var ctrlTenants = []string{"t0", "t1", "t2"}

// ctrlQuotaUpdates is how many quota mutations the script issues; each
// update k sets MaxSessions=k, HostBytes=k<<20 so a recovered quota's
// internal consistency is checkable from the record alone.
const ctrlQuotaUpdates = 9

// ctrlTruth is the parent-side ground truth one round's recovery is
// judged against: which mutations the daemon acknowledged (the HTTP
// response is written only after the terminal transaction is fsynced,
// so an ack is a durability promise) versus merely issued.
type ctrlTruth struct {
	createIssued                map[string]bool
	createAcked                 map[string]bool
	quotaIssued                 map[string][]int // update indices issued, in order
	quotaAcked                  map[string]int   // highest acknowledged update index
	drainIssued, drainAcked     bool             // device 0
	readmitIssued, readmitAcked bool             // device 0
	deleteIssued, deleteAcked   bool             // tenant t2
	// interrupted: a request died on the wire — the armed crash point
	// killed the daemon mid-mutation, which is the event under test.
	interrupted bool
}

func newCtrlTruth() *ctrlTruth {
	return &ctrlTruth{
		createIssued: make(map[string]bool),
		createAcked:  make(map[string]bool),
		quotaIssued:  make(map[string][]int),
		quotaAcked:   make(map[string]int),
	}
}

// ctrlTorture SIGKILLs a store-backed daemon mid-mutation and requires
// every REST mutation to be fully applied or fully rolled back. The
// mutation script's 15 operations cross 42 op-step boundaries and 47
// commits after 3 boot commits; each draw starts past the first
// acknowledged mutation (op step 2, commit 4) and ends inside the
// script. The final scenario recovers with resume disabled so the
// crash's pending ops surface as stuck and must be cleaned over REST.
var ctrlTorture = mode{
	name: "control-plane", flag: "-ctrlplane", rounds: 5,
	survived: "every mutation fully applied or fully rolled back",
	scenarios: []scenario{
		{name: "mid-op-step crash", point: faultinject.PointCtrlOpStep, first: 3, span: 36},
		{name: "pre-fsync crash", point: faultinject.PointStorePreSync, first: 5, span: 36},
		{name: "post-fsync crash", point: faultinject.PointStorePostSync, first: 5, span: 36},
		// Two crash points per compaction: odd = snapshot durable but not
		// renamed, even = renamed but WAL not truncated.
		{name: "mid-compaction crash", point: faultinject.PointStoreCompact, first: 1, span: 2},
		{name: "stuck ops + REST cleanup", point: faultinject.PointCtrlOpStep, first: 3, span: 36, noResume: true},
	},
	round: ctrlRound,
}

// ctrlRound runs one crash → recover → audit cycle.
func ctrlRound(r *round) (bool, error) {
	victim, err := r.spawn(childOpts{Store: r.dir, Point: r.point, Nth: r.nth})
	if err != nil {
		return false, fmt.Errorf("starting victim daemon: %v", err)
	}
	defer victim.kill()

	tr := newCtrlTruth()
	if err := runCtrlScript("http://"+victim.http, tr); err != nil {
		return false, fmt.Errorf("mutation script: %v", err)
	}
	if err := r.crashed(victim); err != nil {
		return false, err
	}

	// Recovery: a fresh daemon over the same directory, nothing armed.
	doctor, err := r.spawn(childOpts{Store: r.dir, NoResume: r.noResume})
	if err != nil {
		return false, fmt.Errorf("starting recovery daemon: %v", err)
	}
	defer doctor.kill()
	return len(tr.createAcked) > 0, ctrlVerify("http://"+doctor.http, tr, r.noResume)
}

// runCtrlScript drives the round's deterministic mutation script
// against the victim, recording which mutations were acknowledged.
// A transport error means the armed crash point killed the daemon
// mid-request: the script stops and the round moves on to recovery.
// A live daemon answering with an unexpected status is a verdict
// failure, not a crash.
func runCtrlScript(base string, tr *ctrlTruth) error {
	client := &http.Client{Timeout: 10 * time.Second}

	for _, name := range ctrlTenants {
		tr.createIssued[name] = true
		ok, err := ctrlDo(client, tr, "POST", base+"/tenants",
			map[string]string{"name": name}, http.StatusCreated)
		if err != nil || tr.interrupted {
			return err
		}
		if ok {
			tr.createAcked[name] = true
		}
	}
	for k := 1; k <= ctrlQuotaUpdates; k++ {
		t := ctrlTenants[(k-1)%len(ctrlTenants)]
		tr.quotaIssued[t] = append(tr.quotaIssued[t], k)
		ok, err := ctrlDo(client, tr, "PUT", base+"/quotas/"+t,
			map[string]any{"max_sessions": k, "host_bytes": uint64(k) << 20}, http.StatusOK)
		if err != nil || tr.interrupted {
			return err
		}
		if ok {
			tr.quotaAcked[t] = k
		}
	}
	tr.drainIssued = true
	ok, err := ctrlDo(client, tr, "POST", base+"/devices/0/drain", nil, http.StatusOK)
	if err != nil || tr.interrupted {
		return err
	}
	tr.drainAcked = ok
	tr.readmitIssued = true
	ok, err = ctrlDo(client, tr, "POST", base+"/devices/0/readmit", nil, http.StatusOK)
	if err != nil || tr.interrupted {
		return err
	}
	tr.readmitAcked = ok
	tr.deleteIssued = true
	ok, err = ctrlDo(client, tr, "DELETE", base+"/tenants/t2", nil, http.StatusNoContent)
	if err != nil || tr.interrupted {
		return err
	}
	tr.deleteAcked = ok
	return nil
}

// ctrlDo issues one REST mutation. Transport errors set tr.interrupted
// (the daemon died under the request); an unexpected status from a live
// daemon is returned as a hard error.
func ctrlDo(client *http.Client, tr *ctrlTruth, method, url string, body any, want int) (bool, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return false, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		tr.interrupted = true
		return false, nil
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		return false, fmt.Errorf("%s %s: status %d (want %d): %s",
			method, url, resp.StatusCode, want, bytes.TrimSpace(out))
	}
	return true, nil
}

// ctrlOpsResp mirrors the GET /ops envelope.
type ctrlOpsResp struct {
	Ops      []ctrlplane.Op     `json:"ops"`
	Counters ctrlplane.Counters `json:"counters"`
}

// ctrlVerify audits the recovered store over REST, field by field,
// against the parent's ground truth. With resume enabled the doctor's
// boot must have resolved every pending op; with resume disabled the
// crash's pending ops must be listed stuck and the cleanup endpoint
// must roll back every one.
func ctrlVerify(base string, tr *ctrlTruth, noResume bool) error {
	client := &http.Client{Timeout: 10 * time.Second}

	var ops ctrlOpsResp
	if err := ctrlGet(client, base+"/ops", &ops); err != nil {
		return err
	}
	if noResume {
		for _, op := range ops.Ops {
			if op.State != "stuck" {
				return fmt.Errorf("resume disabled: op %d (%s) in state %q, want stuck", op.ID, op.Kind, op.State)
			}
		}
		if len(ops.Ops) > 0 {
			var cleaned struct {
				Cleaned int    `json:"cleaned"`
				Error   string `json:"error"`
			}
			resp, err := client.Post(base+"/ops/cleanup", "application/json", nil)
			if err != nil {
				return fmt.Errorf("cleanup: %v", err)
			}
			err = json.NewDecoder(resp.Body).Decode(&cleaned)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("cleanup: decoding response: %v", err)
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("cleanup: status %d: %s", resp.StatusCode, cleaned.Error)
			}
			if cleaned.Cleaned != len(ops.Ops) {
				return fmt.Errorf("cleanup rolled back %d ops, want %d", cleaned.Cleaned, len(ops.Ops))
			}
			fmt.Printf("  cleaned %d stuck ops over REST\n", cleaned.Cleaned)
		}
		if err := ctrlGet(client, base+"/ops", &ops); err != nil {
			return err
		}
	}
	if len(ops.Ops) != 0 {
		return fmt.Errorf("%d operations still pending after boot resolution: %+v", len(ops.Ops), ops.Ops)
	}

	// Tenants: all-or-nothing per the ack ledger.
	var tenants []ctrlplane.Tenant
	if err := ctrlGet(client, base+"/tenants", &tenants); err != nil {
		return err
	}
	present := make(map[string]bool)
	for _, t := range tenants {
		present[t.Name] = true
		if !tr.createIssued[t.Name] {
			return fmt.Errorf("tenant %q exists but was never created", t.Name)
		}
	}
	for _, name := range ctrlTenants {
		deleted := name == "t2" && tr.deleteIssued
		switch {
		case name == "t2" && tr.deleteAcked:
			if present[name] {
				return fmt.Errorf("tenant %q present after acknowledged delete", name)
			}
		case tr.createAcked[name] && !deleted:
			if !present[name] {
				return fmt.Errorf("tenant %q missing after acknowledged create", name)
			}
		}
	}

	// Quotas: each surviving record must be internally consistent
	// (HostBytes derived from the same update as MaxSessions — the
	// no-half-applied-quota invariant), must match an update the parent
	// actually issued, and must be at least as new as the last ack.
	var quotas []ctrlplane.Quota
	if err := ctrlGet(client, base+"/quotas", &quotas); err != nil {
		return err
	}
	quotaOf := make(map[string]ctrlplane.Quota)
	for _, q := range quotas {
		quotaOf[q.Tenant] = q
		if q.HostBytes != uint64(q.MaxSessions)<<20 {
			return fmt.Errorf("HALF-APPLIED quota for %q: max_sessions=%d host_bytes=%d (want %d)",
				q.Tenant, q.MaxSessions, q.HostBytes, uint64(q.MaxSessions)<<20)
		}
		issued := false
		for _, k := range tr.quotaIssued[q.Tenant] {
			issued = issued || k == q.MaxSessions
		}
		if !issued {
			return fmt.Errorf("quota for %q has max_sessions=%d, never issued", q.Tenant, q.MaxSessions)
		}
		if q.MaxSessions < tr.quotaAcked[q.Tenant] {
			return fmt.Errorf("quota for %q regressed to update %d, acknowledged %d",
				q.Tenant, q.MaxSessions, tr.quotaAcked[q.Tenant])
		}
	}
	for _, name := range ctrlTenants {
		if tr.quotaAcked[name] == 0 {
			continue
		}
		_, haveQ := quotaOf[name]
		if name == "t2" && tr.deleteIssued {
			// Tenant and quota are deleted in one transaction: they must
			// disappear together or not at all.
			if haveQ != present[name] {
				return fmt.Errorf("tenant t2 torn delete: tenant present=%v quota present=%v", present[name], haveQ)
			}
			continue
		}
		if !haveQ {
			return fmt.Errorf("quota for %q missing after acknowledged update %d", name, tr.quotaAcked[name])
		}
	}

	// Devices: after boot resolution no device may be stranded
	// "draining", and acknowledged transitions must hold.
	var devs []ctrlplane.DeviceRec
	if err := ctrlGet(client, base+"/devices", &devs); err != nil {
		return err
	}
	state := make(map[int]string)
	for _, d := range devs {
		state[d.ID] = d.State
		if d.State != "active" && d.State != "drained" {
			return fmt.Errorf("device %d stranded in state %q after boot resolution", d.ID, d.State)
		}
	}
	if len(devs) != 2 {
		return fmt.Errorf("store lists %d devices, want 2", len(devs))
	}
	if state[1] != "active" {
		return fmt.Errorf("untouched device 1 in state %q, want active", state[1])
	}
	switch {
	case tr.readmitAcked:
		if state[0] != "active" {
			return fmt.Errorf("device 0 in state %q after acknowledged readmit", state[0])
		}
	case tr.drainAcked && !tr.readmitIssued:
		if state[0] != "drained" {
			return fmt.Errorf("device 0 in state %q after acknowledged drain", state[0])
		}
	}

	// The recovered daemon must report itself ready.
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// ctrlGet fetches a JSON resource, failing on any non-200 answer.
func ctrlGet(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: decoding: %v", url, err)
	}
	return nil
}

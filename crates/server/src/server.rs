//! The online serving engine: MPSC request queue → per-partition
//! dynamic micro-batch formers → SLO-aware tenant admission → replica
//! workers, with optional virtual-clock autoscaling.
//!
//! # Threads and channels
//!
//! ```text
//! clients ──(unbounded MPSC, Submit/Advance/Done)──▶ scheduler thread
//!    ▲                                                  │ (bounded, per replica)
//!    │                                                  ▼
//!    └──(unbounded, Completion)◀── replica workers (per partition × replica)
//! ```
//!
//! The **scheduler** owns the virtual clock: it merges per-client
//! request streams in `(arrival, client, seq)` order, routes each
//! request to its target **partition** (resident network), closes
//! micro-batches through one [`BatchFormer`] per partition (never
//! finalizing a batch a future arrival could still change — see the
//! former's module docs), runs the partition's forked
//! [`AdmissionPolicy`] at dispatch with that chip's modeled service
//! law, and charges each executed batch the pipelined schedule
//! `fill + (B-1)·steady` on the virtual clock. **Replica workers** do
//! the host-side functional execution (`Chip::run_batched_with_scratch`,
//! bit-exact against the sequential golden path) and deliver outputs
//! directly to clients, so virtual-time bookkeeping never waits on host
//! execution. Shed requests are answered by the scheduler itself and
//! cost zero chip time. In model-only mode
//! ([`ServerConfig::model_only`]) workers skip execution and answer
//! [`Outcome::Modeled`] — every virtual-clock figure is unchanged,
//! which is what lets the load generator sustain 10⁶-request runs.
//!
//! Because every latency figure derives from the virtual clock, a
//! serving session's statistics are a deterministic function of the
//! request trace — independent of host thread interleaving — which is
//! what makes the committed `BENCH_loadgen.json` baselines and the CI
//! bench-gate assertions reproducible. Stateful admission and
//! autoscaling keep that property by scoping their state per partition:
//! each partition's decision sequence is deterministic even though
//! cross-partition dispatch interleaving is not.

use crate::autoscale::Autoscaler;
use crate::brownout::{BrownoutConfig, BrownoutController, BrownoutEvent};
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::former::{BatchFormer, FormedBatch};
use crate::health::{HealthConfig, ReplicaState, Witness};
use crate::policy::{AdmissionPolicy, Fifo, ServiceEstimate, ShedReason};
use crate::report::{AlertReport, PartitionReport, ReplicaReport, ServerReport, TenantReport};
use crate::request::{ClientId, Completion, Outcome, RequestMeta, RequestTiming};
use crate::tenant::{TenantClass, TenantId};
use crate::{AutoscaleConfig, ChipFleet, ScaleEvent, ServerError};
use red_arch::CostModel;
use red_device::DriftModel;
use red_runtime::{ExecPrecision, HardwarePerImage};
use red_telemetry::{
    AlertEngine, AlertPolicy, AlertState, AlertTransition, AlertWindow, ArgValue, Counter, Gauge,
    LatencyHistogram, Phase, ScrapeConfig, Scraper, Telemetry, TenantWindow, TraceEvent,
    WindowSnapshot,
};
use red_tensor::FeatureMap;
use std::collections::HashMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Scheduler tuning: batch former bounds, admission policy, tenant
/// classes, autoscaling, and the functional/model-only switch.
#[derive(Clone)]
pub struct ServerConfig {
    max_batch: usize,
    max_wait_ns: u64,
    policy: Arc<dyn AdmissionPolicy>,
    tenants: Vec<TenantClass>,
    autoscale: Option<AutoscaleConfig>,
    brownout: Option<BrownoutConfig>,
    functional: bool,
    telemetry: Telemetry,
    fault_plan: Option<FaultPlan>,
    health: HealthConfig,
    scrape: Option<ScrapeConfig>,
    alerts: Option<AlertPolicy>,
}

impl ServerConfig {
    /// Defaults: `max_batch` 8, `max_wait` 0 (batch only what arrives
    /// together), [`Fifo`] admission, one default tenant class, no
    /// autoscaling, functional execution.
    pub fn new() -> Self {
        Self {
            max_batch: 8,
            max_wait_ns: 0,
            policy: Arc::new(Fifo),
            tenants: vec![TenantClass::default()],
            autoscale: None,
            brownout: None,
            functional: true,
            telemetry: Telemetry::disabled(),
            fault_plan: None,
            health: HealthConfig::default(),
            scrape: None,
            alerts: None,
        }
    }

    /// Sets the batch-size bound.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn max_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "max_batch must be positive");
        self.max_batch = n;
        self
    }

    /// Sets the forming-window bound, in virtual ns.
    pub fn max_wait_ns(mut self, ns: u64) -> Self {
        self.max_wait_ns = ns;
        self
    }

    /// Sets the admission policy (forked once per fleet partition).
    pub fn policy(mut self, policy: impl AdmissionPolicy + 'static) -> Self {
        self.policy = Arc::new(policy);
        self
    }

    /// Sets an already-shared admission policy (e.g. from
    /// [`crate::policy_for`]).
    pub fn policy_arc(mut self, policy: Arc<dyn AdmissionPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Declares the tenant classes clients may register under.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn tenants(mut self, classes: Vec<TenantClass>) -> Self {
        assert!(
            !classes.is_empty(),
            "a server needs at least one tenant class"
        );
        self.tenants = classes;
        self
    }

    /// Enables per-partition replica autoscaling.
    pub fn autoscale(mut self, cfg: AutoscaleConfig) -> Self {
        self.autoscale = Some(cfg);
        self
    }

    /// Enables per-partition brownout control: under overload or lost
    /// capacity the partition steps its execution tier
    /// `Full → Eco → Brownout` ([`ExecPrecision`]) instead of only
    /// shedding, trading a bounded output error for proportionally
    /// cheaper batches. Tenants cap the degradation via
    /// [`TenantClass::precision_floor`]. Strictly opt-in — without this
    /// call every batch runs at full precision and the dispatch path is
    /// byte-identical to earlier builds.
    pub fn brownout(mut self, cfg: BrownoutConfig) -> Self {
        self.brownout = Some(cfg);
        self
    }

    /// Arms a deterministic fault plan: the scheduler injects the
    /// plan's crashes, stalls, drift advances, and stuck-at strikes on
    /// the virtual clock, runs the canary prober, and self-heals via
    /// the [`ReplicaState`] machine. Strictly opt-in — without a plan the
    /// scheduler's one dispatch path takes none of its chaos branches.
    /// Every event must target a partition the fleet hosts and a
    /// replica it provisions; [`Server::start`] rejects the plan with
    /// [`ServerError::FaultTarget`] otherwise.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Tunes the canary prober and self-healing loop (only read when a
    /// [`ServerConfig::fault_plan`] is armed).
    pub fn health(mut self, cfg: HealthConfig) -> Self {
        self.health = cfg;
        self
    }

    /// The armed fault plan, if any.
    pub fn fault_plan_ref(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The health/self-healing tuning.
    pub fn health_config(&self) -> HealthConfig {
        self.health
    }

    /// Attaches a telemetry handle: the scheduler records per-request
    /// lifecycle spans, batch/stage execute spans, scale instants, and
    /// the per-tenant/per-partition metrics plane into it. The default
    /// disabled handle costs one branch per would-be record. Every
    /// recorded timestamp is virtual-clock, and all emission happens on
    /// the scheduler thread into per-partition streams, so the exported
    /// trace is a deterministic function of the request trace.
    pub fn telemetry(mut self, handle: Telemetry) -> Self {
        self.telemetry = handle;
        self
    }

    /// The attached telemetry handle (disabled unless
    /// [`ServerConfig::telemetry`] was called).
    pub fn telemetry_handle(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Arms the windowed time-series scraper: each partition snapshots
    /// its metric registry on the virtual clock at the configured
    /// interval, driven from the scheduler's batch-close pump so scrape
    /// instants — and everything derived from them — are a pure
    /// function of the request trace. Scraping feeds the alert engine
    /// (see [`ServerConfig::alerts`]), emits Chrome-trace `"C"` counter
    /// tracks interleaved with the request spans, and publishes the
    /// per-window series for the JSON reports. Only effective when a
    /// telemetry handle is attached ([`ServerConfig::telemetry`]);
    /// strictly opt-in — without this call the dispatch path is
    /// byte-identical to a scrape-free build.
    pub fn scrape(mut self, cfg: ScrapeConfig) -> Self {
        self.scrape = Some(cfg);
        self
    }

    /// Tunes the multi-window SLO burn-rate alert rules evaluated over
    /// the scrape windows (only read when [`ServerConfig::scrape`] is
    /// armed; the scraper runs [`AlertPolicy::default`] otherwise).
    pub fn alerts(mut self, policy: AlertPolicy) -> Self {
        self.alerts = Some(policy);
        self
    }

    /// The armed scrape cadence, if any.
    pub fn scrape_config(&self) -> Option<ScrapeConfig> {
        self.scrape
    }

    /// The configured alert policy, if one was set.
    pub fn alert_policy(&self) -> Option<AlertPolicy> {
        self.alerts.clone()
    }

    /// Skips functional execution: workers charge the modeled schedule
    /// and answer [`Outcome::Modeled`]. Virtual-clock statistics are
    /// identical to a functional run over the same trace (asserted in
    /// `tests/server_serving.rs`); host cost drops by the chip
    /// simulation, which is what makes 10⁶-request load runs feasible.
    pub fn model_only(mut self) -> Self {
        self.functional = false;
        self
    }

    /// The configured batch-size bound.
    pub fn max_batch_bound(&self) -> usize {
        self.max_batch
    }

    /// The configured forming-window bound, in ns.
    pub fn max_wait_bound_ns(&self) -> u64 {
        self.max_wait_ns
    }

    /// The configured policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The configured tenant classes.
    pub fn tenant_classes(&self) -> &[TenantClass] {
        &self.tenants
    }

    /// The autoscaler tuning, if autoscaling is enabled.
    pub fn autoscale_config(&self) -> Option<AutoscaleConfig> {
        self.autoscale
    }

    /// The brownout tuning, if brownout control is enabled.
    pub fn brownout_config(&self) -> Option<BrownoutConfig> {
        self.brownout
    }

    /// `false` when the server runs model-only.
    pub fn is_functional(&self) -> bool {
        self.functional
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("max_batch", &self.max_batch)
            .field("max_wait_ns", &self.max_wait_ns)
            .field("policy", &self.policy.name())
            .field("tenants", &self.tenants.len())
            .field("autoscale", &self.autoscale)
            .field("brownout", &self.brownout)
            .field("functional", &self.functional)
            .field("telemetry", &self.telemetry.is_enabled())
            .field("fault_plan", &self.fault_plan.as_ref().map(FaultPlan::len))
            .field("health", &self.health)
            .field("scrape", &self.scrape)
            .field("alerts", &self.alerts.is_some())
            .finish()
    }
}

/// How a client interacts with the server — the scheduler needs to know
/// to merge request streams deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientMode {
    /// Fire-and-forget: submits whenever its trace says, regardless of
    /// completions (open-loop load).
    Open,
    /// One request outstanding: submits only after receiving the
    /// previous completion, at or after its virtual completion time
    /// (closed-loop load).
    Closed,
}

/// One client's registration: its loop mode plus the tenant class its
/// requests are accounted (and admission-differentiated) under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSpec {
    /// Open- or closed-loop interaction.
    pub mode: ClientMode,
    /// Tenant class index into [`ServerConfig::tenants`].
    pub tenant: TenantId,
}

impl ClientSpec {
    /// An open-loop client of the given tenant.
    pub fn open(tenant: TenantId) -> Self {
        Self {
            mode: ClientMode::Open,
            tenant,
        }
    }

    /// A closed-loop client of the given tenant.
    pub fn closed(tenant: TenantId) -> Self {
        Self {
            mode: ClientMode::Closed,
            tenant,
        }
    }
}

impl From<ClientMode> for ClientSpec {
    /// A bare mode registers under tenant 0 — the single-tenant
    /// convenience that keeps `Server::start(&fleet, &config,
    /// &[ClientMode::Closed])` working.
    fn from(mode: ClientMode) -> Self {
        Self { mode, tenant: 0 }
    }
}

/// What clients send to the scheduler.
enum Event {
    Submit {
        meta: RequestMeta,
        input: Option<FeatureMap<i64>>,
        responder: Sender<Completion>,
    },
    /// A watermark heartbeat: the client promises to submit nothing
    /// before the given virtual instant.
    Advance(ClientId, u64),
    Done(ClientId),
}

/// A client's handle to a running [`Server`]: submit requests, receive
/// [`Completion`]s.
///
/// Dropping the handle (or calling [`ClientHandle::finish`]) tells the
/// server this client will submit no more requests — required for the
/// server to drain and shut down.
///
/// **Liveness contract:** deterministic virtual-time batching means the
/// scheduler will not finalize a batch that a still-active client could
/// preempt with an earlier-timestamped request. An [`ClientMode::Open`]
/// client must therefore keep submitting, [`advance`] its watermark, or
/// [`finish`] before blocking on [`recv`] — a client that silently goes
/// quiet stalls batch forming for everyone. [`ClientMode::Closed`]
/// clients are exempt while a request is in flight (the scheduler knows
/// they cannot submit), which is what makes
/// [`call`](ClientHandle::call) safe. When blocking is not an option,
/// poll with [`try_recv`] or bound the wait with [`recv_timeout`] —
/// both return instead of deadlocking, so a client that forgot to
/// heartbeat gets an error path rather than a hang.
///
/// [`advance`]: ClientHandle::advance
/// [`finish`]: ClientHandle::finish
/// [`recv`]: ClientHandle::recv
/// [`try_recv`]: ClientHandle::try_recv
/// [`recv_timeout`]: ClientHandle::recv_timeout
#[derive(Debug)]
pub struct ClientHandle {
    id: ClientId,
    tenant: TenantId,
    seq: u64,
    last_arrival_ns: u64,
    expected_shapes: Arc<Vec<(usize, usize, usize)>>,
    functional: bool,
    events: Sender<Event>,
    completion_tx: Sender<Completion>,
    completions: Receiver<Completion>,
    done: bool,
}

impl ClientHandle {
    /// This client's id (index into the client slice given to
    /// [`Server::start`]).
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// This client's tenant class index.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Submits a request to partition 0 — the whole fleet, for
    /// single-network fleets. See [`ClientHandle::submit_to`].
    ///
    /// # Errors
    ///
    /// As [`ClientHandle::submit_to`].
    pub fn submit(
        &mut self,
        input: FeatureMap<i64>,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<RequestMeta, ServerError> {
        self.submit_to(0, input, arrival_ns, deadline_ns)
    }

    /// Submits a request for the network resident on fleet partition
    /// `network`, arriving at virtual time `arrival_ns` with an
    /// optional absolute deadline. Arrivals must be nondecreasing per
    /// client; a too-early stamp is clamped to the client's frontier
    /// (its last arrival or [`advance`](ClientHandle::advance)
    /// watermark here, and additionally its last virtual completion on
    /// the scheduler side for closed-loop clients). Returns the
    /// request's final metadata.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownNetwork`] for an out-of-range partition;
    /// [`ServerError::InputMismatch`] for a wrong-shaped input;
    /// [`ServerError::Disconnected`] after [`ClientHandle::finish`] or
    /// server shutdown.
    pub fn submit_to(
        &mut self,
        network: usize,
        input: FeatureMap<i64>,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<RequestMeta, ServerError> {
        let expected = *self
            .expected_shapes
            .get(network)
            .ok_or(ServerError::UnknownNetwork {
                network,
                partitions: self.expected_shapes.len(),
            })?;
        let actual = (input.height(), input.width(), input.channels());
        if actual != expected {
            return Err(ServerError::InputMismatch { expected, actual });
        }
        self.send_submit(network, Some(input), arrival_ns, deadline_ns)
    }

    /// Submits an input-less request on a model-only server (the
    /// functional payload would never be executed; skipping it keeps
    /// the 10⁶-request streaming load generator free of per-request
    /// tensor clones).
    ///
    /// # Errors
    ///
    /// [`ServerError::NeedsInput`] on a functional server;
    /// [`ServerError::UnknownNetwork`] / [`ServerError::Disconnected`]
    /// as [`ClientHandle::submit_to`].
    pub fn submit_modeled(
        &mut self,
        network: usize,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<RequestMeta, ServerError> {
        if self.functional {
            return Err(ServerError::NeedsInput);
        }
        if network >= self.expected_shapes.len() {
            return Err(ServerError::UnknownNetwork {
                network,
                partitions: self.expected_shapes.len(),
            });
        }
        self.send_submit(network, None, arrival_ns, deadline_ns)
    }

    fn send_submit(
        &mut self,
        network: usize,
        input: Option<FeatureMap<i64>>,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<RequestMeta, ServerError> {
        if self.done {
            return Err(ServerError::Disconnected);
        }
        let arrival = arrival_ns.max(self.last_arrival_ns);
        let meta = RequestMeta {
            client: self.id,
            tenant: self.tenant,
            network,
            seq: self.seq,
            arrival_ns: arrival,
            deadline_ns,
        };
        self.events
            .send(Event::Submit {
                meta,
                input,
                responder: self.completion_tx.clone(),
            })
            .map_err(|_| ServerError::Disconnected)?;
        self.seq += 1;
        self.last_arrival_ns = arrival;
        Ok(meta)
    }

    /// Promises the scheduler this client will submit nothing before
    /// virtual instant `watermark_ns` — a heartbeat that lets batches
    /// below the watermark close without this client submitting or
    /// finishing. The streaming load generator sends one per client
    /// before blocking on completions; no-op when the watermark does
    /// not advance.
    ///
    /// # Errors
    ///
    /// [`ServerError::Disconnected`] after [`ClientHandle::finish`] or
    /// server shutdown.
    pub fn advance(&mut self, watermark_ns: u64) -> Result<(), ServerError> {
        if self.done {
            return Err(ServerError::Disconnected);
        }
        if watermark_ns <= self.last_arrival_ns {
            return Ok(());
        }
        self.events
            .send(Event::Advance(self.id, watermark_ns))
            .map_err(|_| ServerError::Disconnected)?;
        self.last_arrival_ns = watermark_ns;
        Ok(())
    }

    /// Blocks for the next completion addressed to this client.
    ///
    /// # Errors
    ///
    /// [`ServerError::Disconnected`] when the server is gone and no
    /// completion is queued.
    pub fn recv(&self) -> Result<Completion, ServerError> {
        self.completions
            .recv()
            .map_err(|_| ServerError::Disconnected)
    }

    /// Non-blocking poll for the next completion: `Ok(None)` when
    /// nothing is queued yet. The liveness-safe alternative to
    /// [`recv`](ClientHandle::recv) for clients that interleave
    /// submission and collection without heartbeating.
    ///
    /// # Errors
    ///
    /// [`ServerError::Disconnected`] when the server is gone and no
    /// completion is queued.
    pub fn try_recv(&self) -> Result<Option<Completion>, ServerError> {
        use std::sync::mpsc::TryRecvError;
        match self.completions.try_recv() {
            Ok(c) => Ok(Some(c)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ServerError::Disconnected),
        }
    }

    /// Blocks up to `timeout` (host time) for the next completion:
    /// `Ok(None)` on timeout. Bounds the wait where
    /// [`recv`](ClientHandle::recv) would deadlock a client that
    /// stalled batch forming by going quiet.
    ///
    /// # Errors
    ///
    /// [`ServerError::Disconnected`] when the server is gone and no
    /// completion is queued.
    pub fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<Completion>, ServerError> {
        use std::sync::mpsc::RecvTimeoutError;
        match self.completions.recv_timeout(timeout) {
            Ok(c) => Ok(Some(c)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ServerError::Disconnected),
        }
    }

    /// Closed-loop convenience: [`submit`](ClientHandle::submit) then
    /// [`recv`](ClientHandle::recv).
    ///
    /// # Errors
    ///
    /// As `submit` and `recv`.
    pub fn call(
        &mut self,
        input: FeatureMap<i64>,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<Completion, ServerError> {
        self.submit(input, arrival_ns, deadline_ns)?;
        self.recv()
    }

    /// Declares this client finished (no more submissions). Idempotent;
    /// also called on drop. Completions can still be received afterward.
    pub fn finish(&mut self) {
        if !self.done {
            self.done = true;
            let _ = self.events.send(Event::Done(self.id));
        }
    }
}

impl Drop for ClientHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Scheduler-side client bookkeeping (see the module docs).
struct ClientState {
    mode: ClientMode,
    done: bool,
    in_flight: u64,
    watermark_ns: u64,
}

/// One request riding to a replica worker.
struct ExecItem {
    meta: RequestMeta,
    timing: RequestTiming,
    responder: Sender<Completion>,
}

/// One admitted batch riding to a replica worker (`inputs[i]` belongs
/// to `items[i]`; `inputs` is empty on a model-only server). The
/// scheduler stamps the execution tier the batch was priced at; the
/// worker executes (and re-derives its charge) at the same tier.
struct ExecBatch {
    inputs: Vec<FeatureMap<i64>>,
    items: Vec<ExecItem>,
    tier: ExecPrecision,
}

/// What one replica worker hands back at shutdown.
#[derive(Default)]
struct ReplicaStats {
    batches: u64,
    images: u64,
    runtime_modeled_ns: u64,
    host_ns: u128,
    unreconciled: u64,
    failed: u64,
    first_error: Option<String>,
    /// Largest elementwise deviation any degraded batch's outputs
    /// showed against a full-precision double-run of the same inputs
    /// (functional mode only; 0 when every batch ran at full tier).
    max_observed_error: f64,
    /// Largest advertised worst-case bound among the tiers this
    /// replica actually executed at.
    error_bound: f64,
}

/// How a shipped batch labels its span on the replica's trace track.
enum BatchSpan {
    /// A batch the former closed: its close trigger, the requests
    /// admission shed from it, and — on fault-plan runs only — the
    /// orphans a crash cut from it. Carries the `tier` arg on
    /// brownout-armed runs and per-stage execute spans.
    Formed {
        trigger: &'static str,
        shed: u64,
        lost: Option<u64>,
    },
    /// A hedged solo request (`trigger: "hedge"`): no stage spans.
    Hedge,
}

type Payload = (Option<FeatureMap<i64>>, Sender<Completion>);

/// Pre-bound per-partition metric handles (all no-ops when telemetry is
/// disabled): binding happens once at [`Server::start`], so the
/// dispatch hot path only touches atomics.
struct PartitionMetrics {
    served_by_tenant: Vec<Counter>,
    shed_by_tenant: Vec<Counter>,
    /// Served requests whose end-to-end latency exceeded their tenant's
    /// SLO (`red_slo_miss_total`, labeled by tenant; best-effort
    /// tenants never miss).
    slo_miss_by_tenant: Vec<Counter>,
    /// One counter per [`ShedReason::ALL`] member (`red_sheds_total`,
    /// labeled by reason).
    shed_by_reason: Vec<Counter>,
    xbar_activations: Counter,
    bit_phase_sweeps: Counter,
    plane_row_adds: Counter,
    adc_quantizations: Counter,
    energy_fj: Counter,
    images: Counter,
    replicas_active: Gauge,
    faults_injected: Counter,
    reprograms: Counter,
    retries: Counter,
    hedges: Counter,
    /// One counter per [`ExecPrecision::ALL`] member
    /// (`red_requests_served_by_tier_total`, labeled by tier).
    served_by_tier: Vec<Counter>,
    /// Current execution tier as [`ExecPrecision::index`] (0 = full).
    precision_tier: Gauge,
    /// Modeled backlog ahead of the newest dispatch, in virtual ns
    /// (`red_backlog_ns`; refreshed at scrape-pump instants).
    backlog_ns: Gauge,
    /// Replicas the dispatch may currently route to — active minus
    /// quarantined/reprogramming (`red_replicas_routable`).
    replicas_routable: Gauge,
}

/// One fire-order alert episode under construction (becomes an
/// [`AlertReport`] at shutdown).
struct AlertEpisode {
    rule: &'static str,
    tenant: Option<usize>,
    fired_at_ns: u64,
    resolved_at_ns: Option<u64>,
    value: f64,
}

/// Per-partition observability plane, armed by [`ServerConfig::scrape`]:
/// the windowed registry [`Scraper`], the [`AlertEngine`] consuming its
/// window sequence, the scraper series ids that assemble each
/// [`AlertWindow`], and the pre-bound `red_alerts_fired_total` handles.
/// Everything here is pumped from the scheduler's batch-close loop on
/// the virtual clock, so scrape windows, alert edges, and the exported
/// series are pure functions of the request trace.
struct PartitionObs {
    scraper: Scraper,
    engine: AlertEngine,
    tele: Telemetry,
    partition: usize,
    pid: u32,
    /// Per-tenant `served` counter-series ids, by tenant index.
    served_ids: Vec<usize>,
    /// Per-tenant `shed` counter-series ids.
    shed_ids: Vec<usize>,
    /// Per-tenant `slo_miss` counter-series ids.
    slo_miss_ids: Vec<usize>,
    /// The `sheds_by_reason` series of [`ShedReason::ReplicaLost`].
    replica_lost_id: usize,
    /// The `replicas_active` gauge series.
    active_id: usize,
    /// The `replicas_routable` gauge series.
    routable_id: usize,
    /// `(rule, tenant) → red_alerts_fired_total` handles, linear-scanned
    /// (a handful of entries).
    fired: Vec<(&'static str, Option<usize>, Counter)>,
    /// Fire-order episode log; resolves close the latest open episode
    /// of their `(rule, tenant)`.
    episodes: Vec<AlertEpisode>,
}

impl PartitionObs {
    /// Runs the alert engine over freshly closed scrape windows,
    /// counting fire edges, logging episodes, and emitting one `alert`
    /// instant per transition onto the partition's autoscale track.
    fn ingest(&mut self, windows: &[WindowSnapshot]) {
        for w in windows {
            let tenants = (0..self.served_ids.len())
                .map(|t| TenantWindow {
                    served: w.values[self.served_ids[t]].max(0) as u64,
                    shed: w.values[self.shed_ids[t]].max(0) as u64,
                    slo_miss: w.values[self.slo_miss_ids[t]].max(0) as u64,
                })
                .collect();
            let aw = AlertWindow {
                t_ns: w.t_ns,
                tenants,
                replica_lost: w.values[self.replica_lost_id].max(0) as u64,
                active: w.values[self.active_id],
                routable: w.values[self.routable_id],
            };
            for tr in self.engine.observe(&aw) {
                self.apply(&tr);
            }
        }
    }

    fn apply(&mut self, tr: &AlertTransition) {
        match tr.state {
            AlertState::Fired => {
                if let Some((_, _, c)) = self
                    .fired
                    .iter()
                    .find(|(rule, tenant, _)| *rule == tr.rule && *tenant == tr.tenant)
                {
                    c.add(1);
                }
                self.episodes.push(AlertEpisode {
                    rule: tr.rule,
                    tenant: tr.tenant,
                    fired_at_ns: tr.t_ns,
                    resolved_at_ns: None,
                    value: tr.value,
                });
            }
            AlertState::Resolved => {
                if let Some(e) = self.episodes.iter_mut().rev().find(|e| {
                    e.rule == tr.rule && e.tenant == tr.tenant && e.resolved_at_ns.is_none()
                }) {
                    e.resolved_at_ns = Some(tr.t_ns);
                }
            }
        }
        if self.tele.is_enabled() {
            self.tele.record(
                self.partition,
                TraceEvent::new(tr.rule, "alert", Phase::Instant, tr.t_ns)
                    .track(self.pid, TRACE_TID_AUTOSCALE)
                    .arg("state", ArgValue::Str(tr.state.as_str()))
                    .arg("tenant", ArgValue::I64(tr.tenant.map_or(-1, |t| t as i64)))
                    .arg("value", ArgValue::F64(tr.value)),
            );
        }
    }

    /// Drains the episode log into report form.
    fn into_reports(self) -> Vec<AlertReport> {
        let p = self.partition;
        self.episodes
            .into_iter()
            .map(|e| AlertReport {
                partition: p,
                rule: e.rule.to_string(),
                tenant: e.tenant,
                fired_at_ns: e.fired_at_ns,
                resolved_at_ns: e.resolved_at_ns,
                value: e.value,
            })
            .collect()
    }
}

/// Per-partition scheduler state: its own former, service law, forked
/// policy, replica pool, autoscaler, and ledgers. Scoping mutable
/// policy/autoscaler state here is what keeps reports deterministic —
/// only the per-partition dispatch order is a function of the trace.
struct PartitionState {
    former: BatchFormer<Payload>,
    /// Tier-priced fill latencies, indexed by [`ExecPrecision::index`]
    /// (`[0]` is the chip's analytic fill exactly — the full-precision
    /// tier is never repriced).
    tier_fill_ns: [u64; 3],
    /// Tier-priced steady intervals, same indexing.
    tier_steady_ns: [u64; 3],
    /// Live-over-full phase ratio per tier (`[0] == 1.0`), for scaling
    /// the tracer's analytic per-stage spans.
    tier_ratio: [f64; 3],
    /// Exact per-image hardware counters per tier (`[0]` is the chip's
    /// full-precision ledger).
    hw_by_tier: [HardwarePerImage; 3],
    /// Per-stage priced latencies, for the tracer's analytic per-stage
    /// execute spans.
    stage_lat: Vec<f64>,
    metrics: PartitionMetrics,
    policy: Box<dyn AdmissionPolicy>,
    replica_tx: Vec<SyncSender<ExecBatch>>,
    free_at: Vec<u64>,
    active: usize,
    autoscaler: Option<Autoscaler>,
    scale_events: Vec<ScaleEvent>,
    brownout: Option<BrownoutController>,
    brownout_events: Vec<BrownoutEvent>,
    /// Served requests per tier, indexed by [`ExecPrecision::index`].
    served_by_tier: [u64; 3],
    offered: u64,
    served: u64,
    shed: u64,
    batches: u64,
    modeled_busy_ns: u64,
    total: LatencyHistogram,
    per_replica: Vec<(u64, u64, u64)>, // (batches, images, busy_ns)
    /// Scraper + alert engine, armed by [`ServerConfig::scrape`].
    obs: Option<PartitionObs>,
}

impl PartitionState {
    /// Modeled backlog ahead of `now`, in virtual ns: how long until the
    /// least-loaded active replica frees up. Batches dispatch eagerly (a
    /// closed batch is committed to a replica at once, starting whenever
    /// that replica frees up), so queue pressure lives in the `free_at`
    /// ledger, not the former.
    fn backlog_ns(&self, now: u64) -> u64 {
        let horizon = self.free_at[..self.active]
            .iter()
            .copied()
            .min()
            .unwrap_or(0);
        horizon.saturating_sub(now)
    }

    /// A backlog in units of **full-precision** full-batch makespans:
    /// the queue-depth signal of the autoscale and brownout ticks.
    fn backlog_batches(&self, backlog_ns: u64) -> usize {
        let full = ExecPrecision::Full.index();
        let batch_ns = self.tier_fill_ns[full]
            + (self.former.max_batch() as u64 - 1) * self.tier_steady_ns[full];
        (backlog_ns / batch_ns.max(1)) as usize
    }

    /// Earliest-free active replica, lowest index on ties —
    /// deterministic given the partition's dispatch sequence. With
    /// `chaos`, only replicas the health plane lets the dispatch route
    /// to qualify.
    fn earliest_free(&self, chaos: Option<&PartChaos>) -> Option<usize> {
        self.free_at[..self.active]
            .iter()
            .enumerate()
            .filter(|(i, _)| chaos.is_none_or(|pc| pc.replicas[*i].state.routable()))
            .min_by_key(|(i, &t)| (t, *i))
            .map(|(i, _)| i)
    }

    /// Active replicas the dispatch may route to: all of them without a
    /// fault plan, the healthy ones with one.
    fn routable(&self, chaos: Option<&PartChaos>) -> usize {
        chaos.map_or(self.active, |pc| pc.routable(self.active))
    }
}

/// Per-tenant ledgers the scheduler accumulates.
struct TenantStat {
    offered: u64,
    served: u64,
    shed: u64,
    queue_wait: LatencyHistogram,
    total: LatencyHistogram,
}

/// Session-wide ledgers.
struct GlobalStats {
    offered: u64,
    served: u64,
    shed: u64,
    send_failures: u64,
    batches: u64,
    queue_wait: LatencyHistogram,
    execute: LatencyHistogram,
    total: LatencyHistogram,
    shed_wait: LatencyHistogram,
    batch_sizes: LatencyHistogram,
    first_arrival_ns: u64,
    last_completion_ns: u64,
    modeled_busy_ns: u64,
    /// Sheds by [`ShedReason::index`].
    sheds_by_reason: Vec<u64>,
    faults_injected: u64,
    reprograms: u64,
    retries: u64,
    hedges: u64,
    /// Served requests by [`ExecPrecision::index`].
    served_by_tier: [u64; 3],
}

/// Per-replica self-healing state (fault-plan runs only).
struct ReplicaChaos {
    state: ReplicaState,
    witness: Witness,
    next_probe_ns: u64,
    repair_until_ns: Option<u64>,
}

/// Per-partition chaos state: this partition's slice of the fault plan
/// (each event paired with its seed, derived from the *global* plan
/// index, for deterministic stuck-at strikes) plus the replica health
/// records.
struct PartChaos {
    events: Vec<(u64, FaultEvent)>,
    /// Events consumed out of order by the commit-time crash lookahead;
    /// the pump skips them.
    consumed: Vec<bool>,
    cursor: usize,
    replicas: Vec<ReplicaChaos>,
}

impl PartChaos {
    /// Index (into `events`) of the first unconsumed event at or before
    /// `now`.
    fn next_event_at(&self, now: u64) -> Option<usize> {
        (self.cursor..self.events.len())
            .find(|&i| !self.consumed[i])
            .filter(|&i| self.events[i].1.at_ns <= now)
    }

    /// Marks `events[i]` consumed, advances the cursor past every
    /// consumed event, and returns the event with its seed.
    fn consume(&mut self, i: usize) -> (u64, FaultEvent) {
        self.consumed[i] = true;
        while self.cursor < self.events.len() && self.consumed[self.cursor] {
            self.cursor += 1;
        }
        self.events[i]
    }

    /// How many of the first `active` replicas the scheduler may route
    /// to.
    fn routable(&self, active: usize) -> usize {
        self.replicas[..active.min(self.replicas.len())]
            .iter()
            .filter(|r| r.state.routable())
            .count()
    }
}

/// Scheduler-side fault-injection and self-healing state, present only
/// when a [`FaultPlan`] is armed. Taken out of the scheduler
/// (`Option::take`) for the duration of a dispatch so the chaos logic
/// can borrow partitions and ledgers freely.
struct ChaosState {
    health: HealthConfig,
    /// Modeled replica re-programming outage, from
    /// `CostModel::reprogram_cost(health.reprogram_cells)`.
    reprogram_ns: u64,
    reprogram_energy_pj: f64,
    parts: Vec<PartChaos>,
    /// Re-serve attempts per orphaned request — bounded by
    /// `health.max_retries`, keyed `(client, seq)`. Never iterated, so
    /// the hash order cannot leak into results.
    attempts: HashMap<(ClientId, u64), u32>,
}

struct Scheduler {
    clients: Vec<ClientState>,
    parts: Vec<PartitionState>,
    tenants: Vec<TenantStat>,
    /// Per-tenant precision floors ([`TenantClass::precision_floor`]),
    /// indexed by tenant id.
    floors: Vec<ExecPrecision>,
    /// Per-tenant SLOs ([`TenantClass::slo_ns`]), indexed by tenant id,
    /// for the `red_slo_miss_total` accounting at serve sites.
    slos: Vec<Option<u64>>,
    functional: bool,
    tele: Telemetry,
    out: GlobalStats,
    chaos: Option<ChaosState>,
}

// Trace track layout. Request lifecycle events live on the scheduler
// process (pid 1), one thread track per tenant class; each partition is
// its own process (pid 100+p) with tid 0 for autoscale instants, tid
// 1+r for replica batch spans, and a per-(replica, stage) band for the
// analytic execute spans. Partition `p` records into telemetry stream
// `p` — the per-partition emission sequence is deterministic, so the
// merged export is too.
const TRACE_PID_SCHED: u32 = 1;
const TRACE_TID_AUTOSCALE: u32 = 0;
const TRACE_STAGE_TID_BASE: u32 = 1_000;
/// Stage tids reserved per replica (chips here are ≤ 8 stages deep;
/// deeper stages fold into the last slot rather than colliding across
/// replicas).
const TRACE_STAGE_SLOTS: u32 = 32;

fn trace_pid(partition: usize) -> u32 {
    100 + partition as u32
}

fn trace_tid_replica(replica: usize) -> u32 {
    1 + replica as u32
}

fn trace_tid_stage(replica: usize, stage: usize) -> u32 {
    let k = (stage as u32).min(TRACE_STAGE_SLOTS - 1);
    TRACE_STAGE_TID_BASE + replica as u32 * TRACE_STAGE_SLOTS + k
}

/// Async correlation id of one request's lifecycle span: unique per
/// (client, seq) within a session.
fn trace_req_id(meta: &RequestMeta) -> u64 {
    ((meta.client as u64) << 32) | (meta.seq & 0xffff_ffff)
}

impl Scheduler {
    /// Exclusive-ish lower bound on every future arrival: the minimum
    /// over clients of what each could still submit. A finished client
    /// contributes nothing; a closed-loop client with a request in
    /// flight cannot submit until the scheduler itself assigns that
    /// request a completion time (so ∞ is *exact*, not an
    /// approximation); otherwise the watermark is the client's last
    /// arrival or heartbeat (open) or last virtual completion (closed),
    /// both proven lower bounds on its next arrival.
    fn frontier(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| {
                if c.done || (c.mode == ClientMode::Closed && c.in_flight > 0) {
                    u64::MAX
                } else {
                    c.watermark_ns
                }
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    fn all_done(&self) -> bool {
        self.clients.iter().all(|c| c.done)
    }

    /// The virtual instant the trace provably ended, for drain-mode
    /// closes: the latest final watermark among finished clients (a
    /// client disconnects at its last arrival or heartbeat). Zero when
    /// no client has finished — the all-closed-loop drain, where the
    /// former falls back to its work-conserving close.
    fn drain_end(&self) -> u64 {
        self.clients
            .iter()
            .filter(|c| c.done)
            .map(|c| c.watermark_ns)
            .max()
            .unwrap_or(0)
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Submit {
                mut meta,
                input,
                responder,
            } => {
                let st = &mut self.clients[meta.client];
                // Enforce the watermark invariant the former's safety
                // argument rests on (no-op for well-behaved handles).
                meta.arrival_ns = meta.arrival_ns.max(st.watermark_ns);
                st.watermark_ns = meta.arrival_ns;
                if st.mode == ClientMode::Closed {
                    st.in_flight += 1;
                }
                self.out.offered += 1;
                self.out.first_arrival_ns = self.out.first_arrival_ns.min(meta.arrival_ns);
                self.tenants[meta.tenant].offered += 1;
                let part = &mut self.parts[meta.network];
                part.offered += 1;
                part.former.push(meta, (input, responder));
            }
            Event::Advance(id, watermark_ns) => {
                let st = &mut self.clients[id];
                st.watermark_ns = st.watermark_ns.max(watermark_ns);
            }
            Event::Done(id) => self.clients[id].done = true,
        }
    }

    /// Serves one formed batch of partition `p` — the one serving path,
    /// with or without a fault plan. The batch's tier is fixed by its
    /// membership, then admission runs over the whole batch on the
    /// earliest-free replica. With a plan armed, the plan's events,
    /// probes, and repairs are first pumped up to the batch close, and
    /// a commit-time lookahead asks whether a planned crash truncates
    /// the batch (completions are stamped at dispatch, so the crash
    /// must be resolved *now*). Every request is then recorded in
    /// request order as served, shed, or orphaned; the survivors ship
    /// as one batch, and orphans are retried, hedged, or shed with
    /// [`ShedReason::ReplicaLost`] — never silently dropped. Without a
    /// plan none of the chaos branches run. Everything is a pure
    /// function of (trace, plan, seed): no host time, no iterated hash
    /// maps, stable tie-breaks throughout.
    fn dispatch(&mut self, p: usize, batch: FormedBatch<Payload>) {
        let close_ns = batch.close_ns;
        let mut chaos = self.chaos.take();
        if let Some(chaos) = chaos.as_mut() {
            self.pump_chaos(chaos, p, close_ns, true);
        }
        let tracing = self.tele.is_enabled();
        // The batch's execution tier: the brownout controller's current
        // tier, capped by the precision floor of every tenant with a
        // request in the formed batch (the `min` under the
        // `Full < Eco < Brownout` order is the more precise tier). The
        // tier is fixed by batch *membership* before admission, so the
        // service estimates the policy sees are priced at the tier the
        // batch will actually run at.
        let ctl = self.parts[p]
            .brownout
            .as_ref()
            .map_or(ExecPrecision::Full, BrownoutController::tier);
        let tier = batch
            .requests
            .iter()
            .fold(ctl, |t, (meta, _)| t.min(self.floors[meta.tenant]));
        let part = &mut self.parts[p];
        // Under a fault plan only routable replicas qualify; when every
        // active replica is down, fall back to the earliest-repaired one
        // so the batch (and the virtual clock) still makes progress.
        let r = part
            .earliest_free(chaos.as_ref().map(|c| &c.parts[p]))
            .or_else(|| part.earliest_free(None))
            .expect("a partition always has at least one active replica");
        let start = close_ns.max(part.free_at[r]);
        let fill = part.tier_fill_ns[tier.index()];
        let steady = part.tier_steady_ns[tier.index()];
        // Admission for the whole batch: `Ok(position)` or the shed's
        // reason, read right after its own `admit` call so it sees the
        // policy state the decision saw.
        let mut admitted = 0usize;
        let mut decisions = Vec::with_capacity(batch.requests.len());
        for (meta, _) in &batch.requests {
            let estimate = ServiceEstimate {
                batch_start_ns: start,
                position: admitted,
                fill_latency_ns: fill,
                steady_interval_ns: steady,
                predicted_completion_ns: start + fill + admitted as u64 * steady,
            };
            decisions.push(if part.policy.admit(meta, &estimate) {
                admitted += 1;
                Ok(estimate.position)
            } else {
                Err(part.policy.shed_reason(meta, &estimate))
            });
        }
        // Does a planned crash truncate this batch? Survivors are the
        // admitted requests stamped at or before the crash.
        let crash = match chaos.as_mut() {
            Some(chaos) if admitted > 0 => {
                let end = start + fill + (admitted as u64 - 1) * steady;
                self.crash_within(chaos, p, r, end)
            }
            _ => None,
        };
        let mut inputs = Vec::new();
        let mut items = Vec::with_capacity(admitted);
        let mut orphans = Vec::new();
        let mut shed = 0u64;
        for ((meta, (input, responder)), decision) in batch.requests.into_iter().zip(decisions) {
            // One lifecycle span per request across all of its
            // dispatches: a re-queued orphan is already in the attempts
            // ledger and its span is still open.
            let first_dispatch = chaos
                .as_ref()
                .is_none_or(|c| !c.attempts.contains_key(&(meta.client, meta.seq)));
            if tracing && first_dispatch {
                self.tele.record(
                    p,
                    TraceEvent::new("req", "request", Phase::AsyncBegin, meta.arrival_ns)
                        .track(TRACE_PID_SCHED, meta.tenant as u32)
                        .with_id(trace_req_id(&meta))
                        .arg("network", ArgValue::U64(meta.network as u64)),
                );
            }
            let position = match decision {
                Ok(position) => position,
                Err(reason) => {
                    shed += 1;
                    self.record_shed(p, meta, responder, start, reason);
                    continue;
                }
            };
            let completion_ns = start + fill + position as u64 * steady;
            if crash.is_some_and(|t| completion_ns > t) {
                orphans.push((meta, input, responder));
                continue;
            }
            let item = ExecItem {
                meta,
                timing: RequestTiming {
                    arrival_ns: meta.arrival_ns,
                    dispatch_ns: start,
                    completion_ns,
                },
                responder,
            };
            self.record_served(p, &item, tier, r, position, false);
            if self.functional {
                inputs.push(input.expect("functional servers always carry inputs"));
            }
            items.push(item);
        }
        let span = BatchSpan::Formed {
            trigger: batch.trigger.as_str(),
            shed,
            lost: chaos.is_some().then_some(orphans.len() as u64),
        };
        let makespan = self.ship(
            p,
            r,
            start,
            ExecBatch {
                inputs,
                items,
                tier,
            },
            span,
        );
        if let (Some(t), Some(chaos)) = (crash, chaos.as_mut()) {
            for (meta, input, responder) in orphans {
                self.trace_orphan(p, &meta, r, t);
                self.resolve_orphan(chaos, p, meta, input, responder, t);
            }
        }
        // Every dispatch is a decision instant on the virtual clock.
        let effective = self.parts[p].routable(chaos.as_ref().map(|c| &c.parts[p]));
        self.chaos = chaos;
        self.autoscale_tick(p, close_ns, makespan, effective);
        self.brownout_tick(p, close_ns, effective);
        // Routable capacity after the ticks (autoscaling may have moved
        // `active`), so the scraped gauge matches what the next
        // dispatch could actually route to.
        let routable = self.parts[p].routable(self.chaos.as_ref().map(|c| &c.parts[p]));
        self.observe_tick(p, close_ns, routable);
    }

    /// Frees a closed-loop client's in-flight slot at `completion_ns`
    /// and advances the session's last completion.
    fn settle(&mut self, meta: &RequestMeta, completion_ns: u64) {
        let st = &mut self.clients[meta.client];
        if st.mode == ClientMode::Closed {
            st.in_flight -= 1;
            st.watermark_ns = st.watermark_ns.max(completion_ns);
        }
        self.out.last_completion_ns = self.out.last_completion_ns.max(completion_ns);
    }

    /// The served-request ledger, shared by formed batches and hedges:
    /// settles the client, charges every served counter and latency
    /// histogram, and records the `admit` instant plus the request's
    /// closing `e` event. The `e` event carries one image's exact
    /// hardware counters at `tier`, so summing the `e` events of every
    /// served request reproduces the aggregate figures. `hedge` marks a
    /// solo deadline rescue on a sibling replica.
    fn record_served(
        &mut self,
        p: usize,
        item: &ExecItem,
        tier: ExecPrecision,
        r: usize,
        position: usize,
        hedge: bool,
    ) {
        let (meta, timing) = (&item.meta, item.timing);
        self.settle(meta, timing.completion_ns);
        let part = &mut self.parts[p];
        let tenant = &mut self.tenants[meta.tenant];
        self.out.served += 1;
        part.served += 1;
        tenant.served += 1;
        part.metrics.served_by_tenant[meta.tenant].add(1);
        self.out.served_by_tier[tier.index()] += 1;
        part.served_by_tier[tier.index()] += 1;
        part.metrics.served_by_tier[tier.index()].add(1);
        self.out.queue_wait.record(timing.queue_wait_ns());
        self.out.execute.record(timing.execute_ns());
        self.out.total.record(timing.total_ns());
        tenant.queue_wait.record(timing.queue_wait_ns());
        tenant.total.record(timing.total_ns());
        part.total.record(timing.total_ns());
        if self.slos[meta.tenant].is_some_and(|slo| timing.total_ns() > slo) {
            part.metrics.slo_miss_by_tenant[meta.tenant].add(1);
        }
        if let Some(obs) = part.obs.as_mut() {
            obs.scraper.record_latency(timing.total_ns());
        }
        if self.tele.is_enabled() {
            let id = trace_req_id(meta);
            let mut admit =
                TraceEvent::new("admit", "request", Phase::AsyncInstant, timing.dispatch_ns)
                    .track(TRACE_PID_SCHED, meta.tenant as u32)
                    .with_id(id)
                    .arg("position", ArgValue::U64(position as u64))
                    .arg("replica", ArgValue::U64(r as u64));
            if hedge {
                admit = admit.arg("hedge", ArgValue::U64(1));
            }
            self.tele.record(p, admit);
            let hw = part.hw_by_tier[tier.index()];
            self.tele.record(
                p,
                TraceEvent::new("req", "request", Phase::AsyncEnd, timing.completion_ns)
                    .track(TRACE_PID_SCHED, meta.tenant as u32)
                    .with_id(id)
                    .arg("xbar_activations", ArgValue::U64(hw.crossbar_activations))
                    .arg("adc_quantizations", ArgValue::U64(hw.adc_quantizations))
                    .arg("energy_fj", ArgValue::U64(hw.energy_fj)),
            );
        }
    }

    /// The shed ledger, shared by admission denials and lost orphans:
    /// answers the request as shed at instant `at` (zero chip time),
    /// attributes the denial to its tenant and `reason`, and feeds the
    /// autoscaler's and brownout controller's shed signals.
    fn record_shed(
        &mut self,
        p: usize,
        meta: RequestMeta,
        responder: Sender<Completion>,
        at: u64,
        reason: ShedReason,
    ) {
        let timing = RequestTiming {
            arrival_ns: meta.arrival_ns,
            dispatch_ns: at,
            completion_ns: at,
        };
        self.settle(&meta, at);
        let part = &mut self.parts[p];
        let tenant = &mut self.tenants[meta.tenant];
        self.out.shed += 1;
        part.shed += 1;
        tenant.shed += 1;
        part.metrics.shed_by_tenant[meta.tenant].add(1);
        // Attribute the denial to its tenant so the autoscaler's next
        // ScaleEvent can name the worst offender.
        if let Some(scaler) = part.autoscaler.as_mut() {
            scaler.observe_shed(meta.tenant, 1);
        }
        if let Some(ctl) = part.brownout.as_mut() {
            ctl.observe_shed(1);
        }
        self.out.shed_wait.record(timing.queue_wait_ns());
        self.out.sheds_by_reason[reason.index()] += 1;
        part.metrics.shed_by_reason[reason.index()].add(1);
        if self.tele.is_enabled() {
            let id = trace_req_id(&meta);
            self.tele.record(
                p,
                TraceEvent::new("shed", "request", Phase::AsyncInstant, at)
                    .track(TRACE_PID_SCHED, meta.tenant as u32)
                    .with_id(id)
                    .arg("reason", ArgValue::Str(reason.as_str())),
            );
            self.tele.record(
                p,
                TraceEvent::new("req", "request", Phase::AsyncEnd, at)
                    .track(TRACE_PID_SCHED, meta.tenant as u32)
                    .with_id(id)
                    .arg("outcome", ArgValue::Str("shed")),
            );
        }
        let _ = responder.send(Completion {
            meta,
            timing,
            outcome: Outcome::Shed,
        });
    }

    /// Charges `batch` to replica `r` from `start` under the pipelined
    /// schedule `fill + (b-1)·steady` at the batch's tier, records its
    /// span, and ships it to the worker. The worker re-derives the same
    /// charge from the batch it receives, so `ServerReport::reconciles`
    /// holds for formed batches, crash survivors, and hedges alike.
    /// Returns the busy time charged: zero for an empty (fully shed or
    /// fully orphaned) batch, which costs no chip time.
    fn ship(&mut self, p: usize, r: usize, start: u64, batch: ExecBatch, span: BatchSpan) -> u64 {
        let b = batch.items.len() as u64;
        if b == 0 {
            return 0;
        }
        let tier = batch.tier;
        let part = &mut self.parts[p];
        let makespan =
            part.tier_fill_ns[tier.index()] + (b - 1) * part.tier_steady_ns[tier.index()];
        // A formed batch starts at or after `free_at[r]`, so this sets
        // the replica free at the batch's end; a crash has already
        // pushed `free_at[r]` past every survivor to its repair
        // completion, and a hedge never pulls a busier horizon back.
        part.free_at[r] = part.free_at[r].max(start + makespan);
        self.out.modeled_busy_ns += makespan;
        part.modeled_busy_ns += makespan;
        self.out.batches += 1;
        part.batches += 1;
        self.out.batch_sizes.record(b);
        let (rb, ri, rbusy) = &mut part.per_replica[r];
        *rb += 1;
        *ri += b;
        *rbusy += makespan;
        // The partition-level hardware charge: exactly `hw × b` at the
        // batch's tier, the same per-image integers the request-level
        // `e` events carry.
        let hwb = part.hw_by_tier[tier.index()].scaled(b);
        part.metrics.images.add(b);
        part.metrics.xbar_activations.add(hwb.crossbar_activations);
        part.metrics.bit_phase_sweeps.add(hwb.bit_phase_sweeps);
        part.metrics.plane_row_adds.add(hwb.plane_row_adds);
        part.metrics.adc_quantizations.add(hwb.adc_quantizations);
        part.metrics.energy_fj.add(hwb.energy_fj);
        if self.tele.is_enabled() {
            let pid = trace_pid(p);
            let (trigger, shed, lost) = match span {
                BatchSpan::Formed {
                    trigger,
                    shed,
                    lost,
                } => (trigger, shed, lost),
                BatchSpan::Hedge => ("hedge", 0, None),
            };
            let mut ev = TraceEvent::new("batch", "exec", Phase::Complete, start)
                .track(pid, trace_tid_replica(r))
                .dur(makespan)
                .arg("size", ArgValue::U64(b))
                .arg("trigger", ArgValue::Str(trigger))
                .arg("shed", ArgValue::U64(shed));
            if let Some(lost) = lost {
                ev = ev.arg("lost", ArgValue::U64(lost));
            }
            ev = ev.arg("energy_fj", ArgValue::U64(hwb.energy_fj));
            let formed = matches!(span, BatchSpan::Formed { .. });
            // The tier arg rides only on brownout-armed sessions so
            // earlier committed traces stay byte-identical.
            if formed && part.brownout.is_some() {
                ev = ev.arg("tier", ArgValue::Str(tier.name()));
            }
            self.tele.record(p, ev);
            // Analytic per-stage execute spans under the pipelined
            // schedule the makespan charges: stage k first starts at the
            // latency prefix and last finishes one bottleneck interval
            // per extra image later. Stage latencies scale with the
            // tier's live phase ratio, like the makespan.
            let stages = if formed {
                part.stage_lat.as_slice()
            } else {
                &[]
            };
            let ratio = part.tier_ratio[tier.index()];
            let mut prefix = 0.0f64;
            let mut runmax = 0.0f64;
            for (k, &l) in stages.iter().enumerate() {
                let l = l * ratio;
                runmax = runmax.max(l);
                let begin = start + prefix.round() as u64;
                let end = start + (prefix + l + (b - 1) as f64 * runmax).round() as u64;
                prefix += l;
                self.tele.record(
                    p,
                    TraceEvent::new("stage", "exec", Phase::Complete, begin)
                        .track(pid, trace_tid_stage(r, k))
                        .dur(end.saturating_sub(begin))
                        .arg("stage", ArgValue::U64(k as u64))
                        .arg("images", ArgValue::U64(b)),
                );
            }
        }
        if let Err(failed) = part.replica_tx[r].send(batch) {
            // The worker is gone (cannot happen short of a panic);
            // answer the batch ourselves so closed-loop clients never
            // hang.
            self.out.send_failures += b;
            for item in failed.0.items {
                let _ = item.responder.send(Completion {
                    meta: item.meta,
                    timing: item.timing,
                    outcome: Outcome::Failed,
                });
            }
        }
        makespan
    }

    /// The per-dispatch autoscaling decision instant. `effective` is
    /// the replica count the decision sees — the full active pool in
    /// normal runs, the *routable* pool under a fault plan (so
    /// quarantined capacity reads as lost and produces scale-up
    /// pressure). The decision's delta is applied to the provisioned
    /// `active` count.
    ///
    /// The queue-depth signal is the modeled backlog ahead of the newest
    /// dispatch in full-batch makespans: how many max-size batches the
    /// least-loaded active replica still has to finish before work
    /// closing *now* could start. Every input is a deterministic
    /// function of the partition's dispatch sequence, which keeps scale
    /// decisions trace-reproducible. Sheds feed the saturation trigger:
    /// admission control caps the queue near its lag bound, so a
    /// shedding partition signals overload through utilization + shed
    /// count, not backlog.
    fn autoscale_tick(&mut self, p: usize, close_ns: u64, makespan: u64, effective: usize) {
        let part = &mut self.parts[p];
        let Some(scaler) = part.autoscaler.as_mut() else {
            return;
        };
        scaler.observe_busy(makespan);
        if !scaler.due(close_ns) {
            return;
        }
        let backlog_ns = part.backlog_ns(close_ns);
        let queue = part.backlog_batches(backlog_ns);
        let scaler = part.autoscaler.as_mut().expect("checked armed above");
        if let Some(event) = scaler.decide(close_ns, queue, backlog_ns, effective.max(1)) {
            let delta = event.to as i64 - event.from as i64;
            part.active = (part.active as i64 + delta).clamp(1, part.free_at.len() as i64) as usize;
            part.metrics.replicas_active.set(part.active as i64);
            part.scale_events.push(event);
            if self.tele.is_enabled() {
                self.tele.record(
                    p,
                    TraceEvent::new("scale", "autoscale", Phase::Instant, event.at_ns)
                        .track(trace_pid(p), TRACE_TID_AUTOSCALE)
                        .arg("from", ArgValue::U64(event.from as u64))
                        .arg("to", ArgValue::U64(event.to as u64))
                        .arg("queue", ArgValue::U64(event.queue_depth as u64))
                        .arg("utilization", ArgValue::F64(event.utilization))
                        .arg("shed_in_window", ArgValue::U64(event.shed_in_window))
                        .arg(
                            "top_shed_tenant",
                            ArgValue::I64(event.top_shed_tenant.map_or(-1, |t| t as i64)),
                        ),
                );
            }
        }
    }

    /// The per-dispatch brownout decision instant, mirroring
    /// [`Scheduler::autoscale_tick`]: the queue-depth signal is the
    /// modeled backlog ahead of the newest dispatch in **full-precision**
    /// full-batch makespans (a stable unit across tiers — measuring
    /// backlog in the degraded tier's shorter makespans would make the
    /// pressure signal shrink exactly when the fleet degrades, hiding
    /// the overload it is reacting to). `routable` is the replica pool
    /// the dispatch could route to; the gap to the provisioned active
    /// pool is the health plane's lost capacity.
    fn brownout_tick(&mut self, p: usize, close_ns: u64, routable: usize) {
        let part = &mut self.parts[p];
        let provisioned = part.active;
        let Some(ctl) = part.brownout.as_mut() else {
            return;
        };
        if !ctl.due(close_ns) {
            return;
        }
        let backlog_ns = part.backlog_ns(close_ns);
        let queue = part.backlog_batches(backlog_ns);
        let ctl = part.brownout.as_mut().expect("checked armed above");
        if let Some(event) = ctl.decide(close_ns, queue, backlog_ns, routable.max(1), provisioned) {
            part.metrics.precision_tier.set(event.to.index() as i64);
            part.brownout_events.push(event);
            if self.tele.is_enabled() {
                self.tele.record(
                    p,
                    TraceEvent::new("brownout", "autoscale", Phase::Instant, event.at_ns)
                        .track(trace_pid(p), TRACE_TID_AUTOSCALE)
                        .arg("from", ArgValue::Str(event.from.name()))
                        .arg("to", ArgValue::Str(event.to.name()))
                        .arg("queue", ArgValue::U64(event.queue_depth as u64))
                        .arg("shed_in_window", ArgValue::U64(event.shed_in_window))
                        .arg("replicas_lost", ArgValue::U64(event.replicas_lost as u64)),
                );
            }
        }
    }

    /// The per-dispatch scrape-pump instant: refresh the sampled
    /// gauges, advance partition `p`'s scraper to `now_ns` (taking one
    /// registry snapshot per crossed window boundary), and run the
    /// alert engine over every window that closed. Every input is a
    /// deterministic function of the partition's dispatch sequence, so
    /// the scrape series and alert timeline replay byte-identically —
    /// the same argument the autoscale and brownout ticks rest on.
    fn observe_tick(&mut self, p: usize, now_ns: u64, routable: usize) {
        let part = &mut self.parts[p];
        if part.obs.is_none() {
            return;
        }
        part.metrics.backlog_ns.set(part.backlog_ns(now_ns) as i64);
        part.metrics.replicas_routable.set(routable as i64);
        let obs = part.obs.as_mut().expect("checked non-None above");
        let windows = obs.scraper.pump(now_ns);
        obs.ingest(&windows);
    }

    /// End-of-session scrape flush: close the final (possibly partial)
    /// window at the last virtual completion — after
    /// [`Scheduler::finalize_chaos`], so end-of-plan repairs and fault
    /// counters land in it — run the alert engine over the tail, and
    /// publish every series (with its conservation ledger) for the
    /// JSON exports.
    fn flush_observability(&mut self) {
        let end = self.out.last_completion_ns;
        for p in 0..self.parts.len() {
            let part = &mut self.parts[p];
            let backlog_ns = part.backlog_ns(end);
            let Some(obs) = part.obs.as_mut() else {
                continue;
            };
            part.metrics.backlog_ns.set(backlog_ns as i64);
            let windows = obs.scraper.finish(end);
            obs.ingest(&windows);
            self.tele.publish_timeseries(obs.scraper.export());
        }
    }

    // ---- Fault-plan (chaos) layer ---------------------------------
    //
    // Helpers `dispatch` calls only when a `FaultPlan` is armed: the pump
    // that interleaves plan events, canary probes, and repair
    // completions with the batch stream on the virtual clock, the
    // commit-time crash lookahead, and orphan resolution.

    /// Processes plan events, canary probes (unless `probes` is off —
    /// the end-of-session flush skips them), and repair completions for
    /// partition `p` in virtual-time order up to `now`. Ties process
    /// repairs first, then plan events, then probes, with replica/plan
    /// index as the final tie-break.
    fn pump_chaos(&mut self, chaos: &mut ChaosState, p: usize, now: u64, probes: bool) {
        loop {
            let pc = &chaos.parts[p];
            // (instant, class, index): class 0 repair, 1 event, 2 probe.
            let mut best: Option<(u64, u8, usize)> = None;
            let mut offer = |cand: Option<(u64, u8, usize)>| {
                if let Some((t, c, i)) = cand {
                    if t <= now && best.is_none_or(|b| (t, c, i) < (b.0, b.1, b.2)) {
                        best = Some((t, c, i));
                    }
                }
            };
            offer(
                pc.replicas
                    .iter()
                    .enumerate()
                    .filter_map(|(r, rc)| rc.repair_until_ns.map(|t| (t, 0, r)))
                    .min(),
            );
            offer(pc.next_event_at(now).map(|i| (pc.events[i].1.at_ns, 1, i)));
            if probes {
                offer(
                    pc.replicas
                        .iter()
                        .enumerate()
                        .map(|(r, rc)| (rc.next_probe_ns, 2, r))
                        .min(),
                );
            }
            match best {
                Some((t, 0, r)) => self.complete_repair(chaos, p, r, t),
                Some((_, 1, i)) => self.apply_plan_event(chaos, p, i),
                Some((t, _, r)) => self.probe_replica(chaos, p, r, t),
                None => break,
            }
        }
    }

    /// Applies the plan event at `events[i]` (already known due) to its
    /// partition, emits its `fault` instant, and advances the cursor.
    fn apply_plan_event(&mut self, chaos: &mut ChaosState, p: usize, i: usize) {
        let (event_seed, event) = chaos.parts[p].consume(i);
        // `Server::start` rejected out-of-range targets, so every index
        // below is a provisioned replica.
        let r = event.replica;
        self.count_fault(p, &event, r);
        match event.kind {
            FaultKind::Crash => self.quarantine_replica(chaos, p, r, event.at_ns, None),
            FaultKind::Stall { ns } => {
                let free_at = &mut self.parts[p].free_at[r];
                *free_at = (*free_at).max(event.at_ns) + ns;
            }
            FaultKind::Drift { elapsed_s } => {
                let nu = chaos.health.drift_nu;
                for rc in &mut chaos.parts[p].replicas {
                    let aged = DriftModel::after(nu, rc.witness.drift().elapsed_s + elapsed_s);
                    rc.witness.advance_drift(aged);
                }
            }
            FaultKind::Strikes { cells } => {
                chaos.parts[p].replicas[r].witness.strike(cells, event_seed);
            }
        }
    }

    /// Fault-injection bookkeeping shared by the pump and the crash
    /// lookahead: the session counter, the metrics plane, and the
    /// replica-track `fault` instant.
    fn count_fault(&mut self, p: usize, event: &FaultEvent, r: usize) {
        self.out.faults_injected += 1;
        self.parts[p].metrics.faults_injected.add(1);
        if self.tele.is_enabled() {
            self.tele.record(
                p,
                TraceEvent::new("fault", "fault", Phase::Instant, event.at_ns)
                    .track(trace_pid(p), trace_tid_replica(r))
                    .arg("kind", ArgValue::Str(event.kind.as_str()))
                    .arg("replica", ArgValue::U64(r as u64)),
            );
        }
    }

    /// Pulls replica `r` from routing at instant `t` and schedules its
    /// re-programming: `Quarantined` is passed through instantly (repair
    /// capacity is not modeled), the modeled outage comes from
    /// `CostModel::reprogram_cost`, and `free_at` is pushed to the
    /// repair completion so backlog math sees the outage too.
    fn quarantine_replica(
        &mut self,
        chaos: &mut ChaosState,
        p: usize,
        r: usize,
        t: u64,
        deviation: Option<f64>,
    ) {
        let begin = self.parts[p].free_at[r].max(t);
        let until = begin + chaos.reprogram_ns;
        let rc = &mut chaos.parts[p].replicas[r];
        rc.state = ReplicaState::Quarantined;
        rc.repair_until_ns = Some(until.max(rc.repair_until_ns.unwrap_or(0)));
        rc.state = ReplicaState::Reprogramming;
        self.parts[p].free_at[r] = until;
        self.out.reprograms += 1;
        self.parts[p].metrics.reprograms.add(1);
        if self.tele.is_enabled() {
            let mut quarantine = TraceEvent::new("quarantine", "health", Phase::Instant, t)
                .track(trace_pid(p), trace_tid_replica(r))
                .arg("replica", ArgValue::U64(r as u64));
            if let Some(dev) = deviation {
                quarantine = quarantine.arg("deviation", ArgValue::F64(dev));
            }
            self.tele.record(p, quarantine);
            self.tele.record(
                p,
                TraceEvent::new("reprogram", "health", Phase::Complete, begin)
                    .track(trace_pid(p), trace_tid_replica(r))
                    .dur(chaos.reprogram_ns)
                    .arg("replica", ArgValue::U64(r as u64))
                    .arg("cells", ArgValue::U64(chaos.health.reprogram_cells))
                    .arg("energy_pj", ArgValue::F64(chaos.reprogram_energy_pj)),
            );
        }
    }

    /// Repair completion: fresh witness, back to `Active`.
    fn complete_repair(&mut self, chaos: &mut ChaosState, p: usize, r: usize, _t: u64) {
        let rc = &mut chaos.parts[p].replicas[r];
        rc.witness.reprogram();
        rc.state = ReplicaState::Active;
        rc.repair_until_ns = None;
    }

    /// One canary probe of replica `r` at instant `t`: replay the golden
    /// probe input through the witness and act on the deviation.
    fn probe_replica(&mut self, chaos: &mut ChaosState, p: usize, r: usize, t: u64) {
        let interval = chaos.health.probe_interval_ns.max(1);
        let rc = &mut chaos.parts[p].replicas[r];
        rc.next_probe_ns = t + interval;
        if !rc.state.routable() {
            return; // being repaired; nothing to probe
        }
        let dev = rc.witness.deviation();
        let quarantine = dev >= chaos.health.quarantine_deviation;
        if !quarantine && dev >= chaos.health.warn_deviation && rc.state == ReplicaState::Active {
            rc.state = ReplicaState::Degraded;
        }
        let state = if quarantine {
            ReplicaState::Quarantined
        } else {
            rc.state
        };
        if self.tele.is_enabled() {
            self.tele.record(
                p,
                TraceEvent::new("probe", "health", Phase::Instant, t)
                    .track(trace_pid(p), trace_tid_replica(r))
                    .arg("deviation", ArgValue::F64(dev))
                    .arg("state", ArgValue::Str(state.as_str())),
            );
        }
        if quarantine {
            self.quarantine_replica(chaos, p, r, t, Some(dev));
        }
    }

    /// Commit-time crash lookahead: if an unconsumed planned crash on
    /// replica `r` fires at or before `end`, consume it, count it, and
    /// start the repair. Returns the crash instant.
    fn crash_within(
        &mut self,
        chaos: &mut ChaosState,
        p: usize,
        r: usize,
        end: u64,
    ) -> Option<u64> {
        let pc = &chaos.parts[p];
        let mut hit = None;
        for i in pc.cursor..pc.events.len() {
            if pc.consumed[i] {
                continue;
            }
            let (_, e) = pc.events[i];
            if e.at_ns > end {
                break;
            }
            if e.kind == FaultKind::Crash && e.replica == r {
                hit = Some(i);
                break;
            }
        }
        let (_, event) = chaos.parts[p].consume(hit?);
        self.count_fault(p, &event, r);
        self.quarantine_replica(chaos, p, r, event.at_ns, None);
        Some(event.at_ns)
    }

    /// Marks request `meta` orphaned at instant `t` by replica `r`'s
    /// crash.
    fn trace_orphan(&self, p: usize, meta: &RequestMeta, r: usize, t: u64) {
        if self.tele.is_enabled() {
            self.tele.record(
                p,
                TraceEvent::new("fault", "request", Phase::AsyncInstant, t)
                    .track(TRACE_PID_SCHED, meta.tenant as u32)
                    .with_id(trace_req_id(meta))
                    .arg("kind", ArgValue::Str("replica-crash"))
                    .arg("replica", ArgValue::U64(r as u64)),
            );
        }
    }

    /// Re-serves or sheds one request orphaned at instant `now` by its
    /// replica's crash: deadline-free orphans re-queue into the former
    /// (bounded by the retry budget), deadline-bound ones hedge to the
    /// earliest routable sibling when the pipeline fill still fits the
    /// budget, and everything else sheds with
    /// [`ShedReason::ReplicaLost`]. A hedge skips admission (it was
    /// granted on the original dispatch) and runs as a solo batch at
    /// full precision.
    fn resolve_orphan(
        &mut self,
        chaos: &mut ChaosState,
        p: usize,
        meta: RequestMeta,
        input: Option<FeatureMap<i64>>,
        responder: Sender<Completion>,
        mut now: u64,
    ) {
        loop {
            let attempts = chaos.attempts.entry((meta.client, meta.seq)).or_insert(0);
            if *attempts >= chaos.health.max_retries {
                break;
            }
            *attempts += 1;
            let Some(deadline) = meta.deadline_ns else {
                self.out.retries += 1;
                self.parts[p].metrics.retries.add(1);
                let mut requeued = meta;
                requeued.arrival_ns = now;
                self.parts[p].former.push(requeued, (input, responder));
                return;
            };
            let part = &self.parts[p];
            let Some(r) = part.earliest_free(Some(&chaos.parts[p])) else {
                break;
            };
            let start = now.max(part.free_at[r]);
            let completion_ns = start + part.tier_fill_ns[ExecPrecision::Full.index()];
            if completion_ns > deadline {
                break;
            }
            self.out.hedges += 1;
            self.parts[p].metrics.hedges.add(1);
            if let Some(t) = self.crash_within(chaos, p, r, completion_ns) {
                if completion_ns > t {
                    // The hedge replica dies too — go around again.
                    self.trace_orphan(p, &meta, r, t);
                    now = t;
                    continue;
                }
            }
            let item = ExecItem {
                meta,
                timing: RequestTiming {
                    arrival_ns: meta.arrival_ns,
                    dispatch_ns: start,
                    completion_ns,
                },
                responder,
            };
            let tier = ExecPrecision::Full;
            self.record_served(p, &item, tier, r, 0, true);
            let mut inputs = Vec::new();
            if self.functional {
                inputs.push(input.expect("functional servers always carry inputs"));
            }
            let items = vec![item];
            self.ship(
                p,
                r,
                start,
                ExecBatch {
                    inputs,
                    items,
                    tier,
                },
                BatchSpan::Hedge,
            );
            return;
        }
        self.record_shed(p, meta, responder, now, ShedReason::ReplicaLost);
    }

    /// End-of-session chaos flush: apply any plan events and finish any
    /// repairs the request trace never reached (probes stop with the
    /// traffic). Keeps the injected-fault count a function of the plan
    /// alone and closes every `reprogram` span before export.
    fn finalize_chaos(&mut self) {
        let Some(mut chaos) = self.chaos.take() else {
            return;
        };
        for p in 0..self.parts.len() {
            self.pump_chaos(&mut chaos, p, u64::MAX, false);
        }
        self.chaos = Some(chaos);
    }

    fn run(mut self, events: Receiver<Event>) -> Scheduler {
        loop {
            loop {
                let mut progressed = false;
                for p in 0..self.parts.len() {
                    let frontier = self.frontier();
                    let drain_end = self.drain_end();
                    if let Some(batch) = self.parts[p].former.try_close(frontier, drain_end) {
                        self.dispatch(p, batch);
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            if self.all_done() && self.parts.iter().all(|p| p.former.is_empty()) {
                break;
            }
            match events.recv() {
                Ok(event) => {
                    self.handle(event);
                    while let Ok(event) = events.try_recv() {
                        self.handle(event);
                    }
                }
                // Every sender gone: no more submissions are possible,
                // whatever Done events may have been missed.
                Err(_) => {
                    for c in &mut self.clients {
                        c.done = true;
                    }
                }
            }
        }
        self.finalize_chaos();
        self.flush_observability();
        if self.out.offered == 0 {
            self.out.first_arrival_ns = 0;
        }
        self
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("offered", &self.out.offered)
            .field("served", &self.out.served)
            .field("shed", &self.out.shed)
            .field("partitions", &self.parts.len())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for ReplicaStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaStats")
            .field("batches", &self.batches)
            .field("images", &self.images)
            .finish_non_exhaustive()
    }
}

/// Host-side execution of one replica. Functional mode drains its batch
/// queue through [`red_runtime::Chip::run_batched_with_scratch_at`] at
/// the batch's brownout tier with a persistent per-replica scratch,
/// answers clients directly, and re-derives the scheduler's virtual
/// charge from the *measured* `RuntimeReport` for
/// [`ServerReport::reconciles`] — the measured schedule is
/// value-independent, so a degraded batch scales the measured fill and
/// bottleneck by the same [`red_runtime::Chip::phase_ratio`] the
/// scheduler priced it with. A degraded batch is also re-run at full
/// precision against a second (lazily built) scratch to meter the
/// session's worst *observed* output error against the advertised
/// [`red_runtime::Chip::truncation_error_bound`]. Model-only mode skips
/// execution and charges the tier-scaled analytic schedule per
/// delivered batch — the reconciliation then checks batch conservation
/// (count and sizes) across the scheduler/worker boundary rather than
/// an independent measurement.
fn replica_worker(
    chip: red_runtime::Chip,
    batches: Receiver<ExecBatch>,
    functional: bool,
) -> ReplicaStats {
    let analytic = chip.pipeline_report();
    let mut stats = ReplicaStats::default();
    // Each degraded tier's advertised bound walks every stage's compiled
    // crossbars, so it is computed on the first batch at that tier and
    // memoized — never per batch, and never at setup for tiers a
    // session does not reach.
    let mut bounds: [Option<f64>; 3] = [None; 3];
    let mut error_bound = |tier: ExecPrecision| {
        *bounds[tier.index()].get_or_insert_with(|| chip.truncation_error_bound(tier))
    };
    if !functional {
        let fill = analytic.fill_latency_ns();
        let steady = analytic.steady_interval_ns();
        while let Ok(batch) = batches.recv() {
            // Identical to the scheduler's tier pricing: full-precision
            // analytic latency scaled by the tier's phase ratio, rounded
            // once (ratio 1.0 is a bit-exact multiply).
            let ratio = chip.phase_ratio(batch.tier);
            let f = (fill * ratio).round() as u64;
            let s = (steady * ratio).round() as u64;
            let b = batch.items.len() as u64;
            stats.runtime_modeled_ns += f + (b - 1) * s;
            stats.batches += 1;
            stats.images += b;
            if batch.tier != ExecPrecision::Full {
                stats.error_bound = stats.error_bound.max(error_bound(batch.tier));
            }
            for item in batch.items {
                let _ = item.responder.send(Completion {
                    meta: item.meta,
                    timing: item.timing,
                    outcome: Outcome::Modeled,
                });
            }
        }
        return stats;
    }
    let mut scratch = chip.make_scratch();
    // The full-precision reference scratch for degraded batches; built
    // on first use so brownout-free sessions pay nothing.
    let mut golden: Option<red_runtime::ChipScratch> = None;
    while let Ok(batch) = batches.recv() {
        match chip.run_batched_with_scratch_at(&batch.inputs, &mut scratch, batch.tier) {
            Ok(run) => {
                let b = batch.inputs.len() as u64;
                // The measured pipelined charge: fill is the measured
                // stage-latency sum; the steady interval is the measured
                // bottleneck stage (the Batched-mode report keeps
                // per-stage latencies even though its own schedule is
                // sequential). Metering is value-independent, so the
                // degraded tier reprices through the phase ratio exactly
                // as the scheduler did.
                let ratio = chip.phase_ratio(batch.tier);
                let fill = (run.report.fill_latency_ns * ratio).round() as u64;
                let bottleneck = (run
                    .report
                    .stages
                    .iter()
                    .map(|s| s.latency_ns)
                    .fold(0.0, f64::max)
                    * ratio)
                    .round() as u64;
                stats.runtime_modeled_ns += fill + (b - 1) * bottleneck;
                if !run.report.reconciles_with(&analytic) {
                    stats.unreconciled += 1;
                }
                stats.host_ns += run.report.wall_ns;
                stats.batches += 1;
                stats.images += b;
                if batch.tier != ExecPrecision::Full {
                    stats.error_bound = stats.error_bound.max(error_bound(batch.tier));
                    let reference = golden.get_or_insert_with(|| chip.make_scratch());
                    if let Ok(exact) = chip.run_batched_with_scratch(&batch.inputs, reference) {
                        for (deg, full) in run.outputs.iter().zip(&exact.outputs) {
                            for (&d, &x) in deg.as_slice().iter().zip(full.as_slice()) {
                                stats.max_observed_error =
                                    stats.max_observed_error.max((d - x).abs() as f64);
                            }
                        }
                    }
                }
                for (item, output) in batch.items.into_iter().zip(run.outputs) {
                    let _ = item.responder.send(Completion {
                        meta: item.meta,
                        timing: item.timing,
                        outcome: Outcome::Served(output),
                    });
                }
            }
            Err(e) => {
                stats.failed += batch.items.len() as u64;
                if stats.first_error.is_none() {
                    stats.first_error = Some(e.to_string());
                }
                for item in batch.items {
                    let _ = item.responder.send(Completion {
                        meta: item.meta,
                        timing: item.timing,
                        outcome: Outcome::Failed,
                    });
                }
            }
        }
    }
    stats
}

/// A running serving session over a [`ChipFleet`].
///
/// [`Server::start`] spawns the scheduler thread and one worker per
/// provisioned replica and returns a [`ClientHandle`] per requested
/// client. Drop (or [`finish`](ClientHandle::finish)) every handle,
/// then call [`Server::finish`] to drain, join, and collect the
/// [`ServerReport`].
#[derive(Debug)]
pub struct Server {
    events: Sender<Event>,
    scheduler: JoinHandle<Scheduler>,
    workers: Vec<(usize, JoinHandle<ReplicaStats>)>,
    network: String,
    design: String,
    replicas: usize,
    clients: usize,
    max_batch: usize,
    max_wait_ns: u64,
    policy_name: String,
    functional: bool,
    tenant_classes: Vec<TenantClass>,
    partition_names: Vec<String>,
    partition_replicas: Vec<usize>,
    telemetry: Telemetry,
    /// The effective alert policy when scraping is armed (drives the
    /// end-of-session `error-bound` rule in [`Server::try_finish`]).
    alert_policy: Option<AlertPolicy>,
}

impl Server {
    /// Starts serving: one scheduler thread, one worker per provisioned
    /// replica of every partition, one [`ClientHandle`] per entry of
    /// `clients`. Accepts `&[ClientMode]` (every client under tenant 0)
    /// or `&[ClientSpec]` for multi-tenant registration.
    ///
    /// # Errors
    ///
    /// [`ServerError::NoClients`] when `clients` is empty;
    /// [`ServerError::UnknownTenant`] when a spec names a tenant class
    /// the config does not declare; [`ServerError::FaultTarget`] when
    /// the armed fault plan targets a partition or replica the fleet
    /// does not provision.
    pub fn start<S>(
        fleet: &ChipFleet,
        config: &ServerConfig,
        clients: &[S],
    ) -> Result<(Server, Vec<ClientHandle>), ServerError>
    where
        S: Clone + Into<ClientSpec>,
    {
        if clients.is_empty() {
            return Err(ServerError::NoClients);
        }
        let specs: Vec<ClientSpec> = clients.iter().cloned().map(Into::into).collect();
        for spec in &specs {
            if spec.tenant >= config.tenants.len() {
                return Err(ServerError::UnknownTenant {
                    tenant: spec.tenant,
                    tenants: config.tenants.len(),
                });
            }
        }
        if let Some(plan) = &config.fault_plan {
            let replicas: Vec<usize> = fleet.partitions().iter().map(|p| p.replicas()).collect();
            plan.check_targets(&replicas)?;
        }
        let expected_shapes = Arc::new(
            fleet
                .partitions()
                .iter()
                .map(|p| p.chip().input_shape())
                .collect::<Vec<_>>(),
        );

        let tele = config.telemetry.clone();
        if tele.is_enabled() {
            tele.name_process(TRACE_PID_SCHED, "scheduler");
            for (t, class) in config.tenants.iter().enumerate() {
                tele.name_thread(TRACE_PID_SCHED, t as u32, &class.name);
            }
        }

        let (event_tx, event_rx) = channel::<Event>();
        let mut parts = Vec::with_capacity(fleet.partition_count());
        let mut workers = Vec::with_capacity(fleet.replicas());
        for (pi, partition) in fleet.partitions().iter().enumerate() {
            let analytic = partition.chip().pipeline_report();
            let stage_lat = partition.chip().stage_latency_profile_ns();
            // Per-tier brownout pricing, computed once: analytic
            // latencies scaled by each tier's live-phase ratio (index 0
            // is the full tier — ratio 1.0 is a bit-exact multiply, so
            // a brownout-free session prices identically to older
            // builds) and the tier-repriced hardware-per-image ledger.
            let mut tier_fill_ns = [0u64; 3];
            let mut tier_steady_ns = [0u64; 3];
            let mut tier_ratio = [0f64; 3];
            let mut hw_by_tier = [HardwarePerImage::default(); 3];
            for tier in ExecPrecision::ALL {
                let i = tier.index();
                let ratio = partition.chip().phase_ratio(tier);
                tier_ratio[i] = ratio;
                tier_fill_ns[i] = (analytic.fill_latency_ns() * ratio).round() as u64;
                tier_steady_ns[i] = (analytic.steady_interval_ns() * ratio).round() as u64;
                hw_by_tier[i] = partition.chip().hardware_per_image_at(tier);
            }
            if tele.is_enabled() {
                let pid = trace_pid(pi);
                tele.name_process(pid, &format!("partition{pi}:{}", partition.chip().name()));
                tele.name_thread(pid, TRACE_TID_AUTOSCALE, "autoscale");
                for r in 0..partition.replicas() {
                    tele.name_thread(pid, trace_tid_replica(r), &format!("replica{r}"));
                    for k in 0..stage_lat.len().min(TRACE_STAGE_SLOTS as usize) {
                        tele.name_thread(pid, trace_tid_stage(r, k), &format!("r{r} stage{k}"));
                    }
                }
            }
            let part_label = pi.to_string();
            let part_labels: [(&'static str, &str); 1] = [("partition", &part_label)];
            let metrics = PartitionMetrics {
                served_by_tenant: config
                    .tenants
                    .iter()
                    .map(|c| {
                        tele.counter(
                            "red_requests_served_total",
                            "Requests admitted and served",
                            &[("partition", &part_label), ("tenant", &c.name)],
                        )
                    })
                    .collect(),
                shed_by_tenant: config
                    .tenants
                    .iter()
                    .map(|c| {
                        tele.counter(
                            "red_requests_shed_total",
                            "Requests denied by admission control",
                            &[("partition", &part_label), ("tenant", &c.name)],
                        )
                    })
                    .collect(),
                slo_miss_by_tenant: config
                    .tenants
                    .iter()
                    .map(|c| {
                        tele.counter(
                            "red_slo_miss_total",
                            "Served requests that exceeded their tenant's latency SLO",
                            &[("partition", &part_label), ("tenant", &c.name)],
                        )
                    })
                    .collect(),
                xbar_activations: tele.counter(
                    "red_xbar_activations_total",
                    "Crossbar vector-operation activations issued",
                    &part_labels,
                ),
                bit_phase_sweeps: tele.counter(
                    "red_bit_phase_sweeps_total",
                    "Bit-serial input phases swept across activations",
                    &part_labels,
                ),
                plane_row_adds: tele.counter(
                    "red_plane_row_adds_total",
                    "Non-zero wordline row-current adds",
                    &part_labels,
                ),
                adc_quantizations: tele.counter(
                    "red_adc_quantizations_total",
                    "ADC integrate-and-fire conversions",
                    &part_labels,
                ),
                energy_fj: tele.counter(
                    "red_energy_femtojoules_total",
                    "Modeled execution energy in femtojoules",
                    &part_labels,
                ),
                images: tele.counter("red_images_total", "Images executed", &part_labels),
                replicas_active: tele.gauge(
                    "red_replicas_active",
                    "Currently active serving replicas",
                    &part_labels,
                ),
                shed_by_reason: ShedReason::ALL
                    .iter()
                    .map(|reason| {
                        tele.counter(
                            "red_sheds_total",
                            "Requests shed, by attributed reason",
                            &[("partition", &part_label), ("reason", reason.as_str())],
                        )
                    })
                    .collect(),
                faults_injected: tele.counter(
                    "red_faults_injected_total",
                    "Fault-plan events injected",
                    &part_labels,
                ),
                reprograms: tele.counter(
                    "red_reprograms_total",
                    "Replica crossbar re-programming repairs",
                    &part_labels,
                ),
                retries: tele.counter(
                    "red_retries_total",
                    "Requests re-queued after losing their replica mid-batch",
                    &part_labels,
                ),
                hedges: tele.counter(
                    "red_hedges_total",
                    "Requests hedged to a sibling replica",
                    &part_labels,
                ),
                served_by_tier: ExecPrecision::ALL
                    .iter()
                    .map(|t| {
                        tele.counter(
                            "red_requests_served_by_tier_total",
                            "Requests served, by execution precision tier",
                            &[("partition", &part_label), ("tier", t.name())],
                        )
                    })
                    .collect(),
                precision_tier: tele.gauge(
                    "red_precision_tier",
                    "Current brownout execution tier (0 = full, 2 = brownout)",
                    &part_labels,
                ),
                backlog_ns: tele.gauge(
                    "red_backlog_ns",
                    "Modeled backlog ahead of the newest dispatch, in virtual ns",
                    &part_labels,
                ),
                replicas_routable: tele.gauge(
                    "red_replicas_routable",
                    "Replicas the dispatch may route to (active minus quarantined)",
                    &part_labels,
                ),
            };
            let mut replica_tx = Vec::with_capacity(partition.replicas());
            for _ in 0..partition.replicas() {
                // Capacity 2: classic double buffering — one batch
                // executing, one staged — with backpressure into the
                // scheduler.
                let (tx, rx) = sync_channel::<ExecBatch>(2);
                let replica = partition.replica_chip();
                let functional = config.functional;
                workers.push((
                    pi,
                    std::thread::spawn(move || replica_worker(replica, rx, functional)),
                ));
                replica_tx.push(tx);
            }
            let autoscaler = config
                .autoscale
                .map(|cfg| Autoscaler::new(cfg, pi, partition.replicas(), config.tenants.len()));
            let active = autoscaler
                .as_ref()
                .map_or(partition.replicas(), Autoscaler::initial_active);
            metrics.replicas_active.set(active as i64);
            metrics.precision_tier.set(0);
            metrics.replicas_routable.set(active as i64);
            // The observability plane: a registry scraper over the
            // handles just bound, with the alert engine consuming its
            // window sequence. Series registration order fixes the
            // chart grouping of the exported "C" counter tracks.
            let obs = config.scrape.filter(|_| tele.is_enabled()).map(|scfg| {
                let pid = trace_pid(pi);
                let mut scraper = Scraper::new(scfg, tele.clone(), pi, pi, pid);
                let served_ids = config
                    .tenants
                    .iter()
                    .enumerate()
                    .map(|(t, c)| {
                        scraper.counter("served", &c.name, metrics.served_by_tenant[t].clone())
                    })
                    .collect();
                let shed_ids = config
                    .tenants
                    .iter()
                    .enumerate()
                    .map(|(t, c)| {
                        scraper.counter("shed", &c.name, metrics.shed_by_tenant[t].clone())
                    })
                    .collect();
                let slo_miss_ids = config
                    .tenants
                    .iter()
                    .enumerate()
                    .map(|(t, c)| {
                        scraper.counter("slo_miss", &c.name, metrics.slo_miss_by_tenant[t].clone())
                    })
                    .collect();
                let mut replica_lost_id = 0;
                for (i, reason) in ShedReason::ALL.iter().enumerate() {
                    let id = scraper.counter(
                        "sheds_by_reason",
                        reason.as_str(),
                        metrics.shed_by_reason[i].clone(),
                    );
                    if i == ShedReason::ReplicaLost.index() {
                        replica_lost_id = id;
                    }
                }
                for tier in ExecPrecision::ALL {
                    scraper.counter(
                        "tier",
                        tier.name(),
                        metrics.served_by_tier[tier.index()].clone(),
                    );
                }
                scraper.counter("faults", "injected", metrics.faults_injected.clone());
                scraper.counter("faults", "reprograms", metrics.reprograms.clone());
                scraper.counter("faults", "retries", metrics.retries.clone());
                scraper.counter("faults", "hedges", metrics.hedges.clone());
                scraper.gauge("capacity", "backlog_ns", metrics.backlog_ns.clone());
                let active_id = scraper.gauge(
                    "capacity",
                    "replicas_active",
                    metrics.replicas_active.clone(),
                );
                let routable_id = scraper.gauge(
                    "capacity",
                    "replicas_routable",
                    metrics.replicas_routable.clone(),
                );
                scraper.quantile("latency", "p50", 0.5);
                scraper.quantile("latency", "p99", 0.99);
                let mut fired: Vec<(&'static str, Option<usize>, Counter)> = Vec::new();
                for (t, c) in config.tenants.iter().enumerate() {
                    for rule in ["fast-burn", "slow-burn"] {
                        fired.push((
                            rule,
                            Some(t),
                            tele.counter(
                                "red_alerts_fired_total",
                                "Alert-rule fire edges",
                                &[
                                    ("partition", &part_label),
                                    ("rule", rule),
                                    ("tenant", &c.name),
                                ],
                            ),
                        ));
                    }
                }
                for rule in ["replica-lost", "quarantine"] {
                    fired.push((
                        rule,
                        None,
                        tele.counter(
                            "red_alerts_fired_total",
                            "Alert-rule fire edges",
                            &[("partition", &part_label), ("rule", rule)],
                        ),
                    ));
                }
                PartitionObs {
                    engine: AlertEngine::new(
                        config.alerts.clone().unwrap_or_default(),
                        config.tenants.len(),
                    ),
                    scraper,
                    tele: tele.clone(),
                    partition: pi,
                    pid,
                    served_ids,
                    shed_ids,
                    slo_miss_ids,
                    replica_lost_id,
                    active_id,
                    routable_id,
                    fired,
                    episodes: Vec::new(),
                }
            });
            parts.push(PartitionState {
                former: BatchFormer::new(config.max_batch, config.max_wait_ns),
                stage_lat,
                tier_fill_ns,
                tier_steady_ns,
                tier_ratio,
                hw_by_tier,
                metrics,
                policy: config.policy.fork(),
                replica_tx,
                free_at: vec![0; partition.replicas()],
                active,
                autoscaler,
                scale_events: Vec::new(),
                brownout: config.brownout.map(|cfg| BrownoutController::new(cfg, pi)),
                brownout_events: Vec::new(),
                served_by_tier: [0; 3],
                offered: 0,
                served: 0,
                shed: 0,
                batches: 0,
                modeled_busy_ns: 0,
                total: LatencyHistogram::new(),
                per_replica: vec![(0, 0, 0); partition.replicas()],
                obs,
            });
        }

        // Arm the chaos layer: split the fault plan per partition
        // (global event indices keep their per-event seeds), seed one
        // canary witness per provisioned replica as a pure function of
        // (plan seed, partition, replica), and price the repair outage
        // from the paper's cost model once up front.
        let chaos = config.fault_plan.as_ref().map(|plan| {
            let health = config.health;
            let repro = CostModel::paper_default().reprogram_cost(health.reprogram_cells);
            let chaos_parts = fleet
                .partitions()
                .iter()
                .enumerate()
                .map(|(pi, partition)| {
                    let events: Vec<(u64, FaultEvent)> = plan
                        .events()
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.partition == pi)
                        .map(|(gi, e)| (plan.event_seed(gi), *e))
                        .collect();
                    let consumed = vec![false; events.len()];
                    let replicas = (0..partition.replicas())
                        .map(|r| ReplicaChaos {
                            state: ReplicaState::Active,
                            witness: Witness::new(
                                plan.seed() ^ ((pi as u64) << 32) ^ (0x5EED << 16) ^ r as u64,
                            ),
                            next_probe_ns: health.probe_interval_ns.max(1),
                            repair_until_ns: None,
                        })
                        .collect();
                    PartChaos {
                        events,
                        consumed,
                        cursor: 0,
                        replicas,
                    }
                })
                .collect();
            ChaosState {
                health,
                reprogram_ns: repro.latency_ns.round() as u64,
                reprogram_energy_pj: repro.energy_pj,
                parts: chaos_parts,
                attempts: HashMap::new(),
            }
        });

        let scheduler_state = Scheduler {
            clients: specs
                .iter()
                .map(|spec| ClientState {
                    mode: spec.mode,
                    done: false,
                    in_flight: 0,
                    watermark_ns: 0,
                })
                .collect(),
            parts,
            tele: tele.clone(),
            tenants: config
                .tenants
                .iter()
                .map(|_| TenantStat {
                    offered: 0,
                    served: 0,
                    shed: 0,
                    queue_wait: LatencyHistogram::new(),
                    total: LatencyHistogram::new(),
                })
                .collect(),
            floors: config.tenants.iter().map(|c| c.precision_floor).collect(),
            slos: config.tenants.iter().map(|c| c.slo_ns).collect(),
            functional: config.functional,
            out: GlobalStats {
                offered: 0,
                served: 0,
                shed: 0,
                send_failures: 0,
                batches: 0,
                queue_wait: LatencyHistogram::new(),
                execute: LatencyHistogram::new(),
                total: LatencyHistogram::new(),
                shed_wait: LatencyHistogram::new(),
                batch_sizes: LatencyHistogram::new(),
                first_arrival_ns: u64::MAX,
                last_completion_ns: 0,
                modeled_busy_ns: 0,
                sheds_by_reason: vec![0; ShedReason::ALL.len()],
                faults_injected: 0,
                reprograms: 0,
                retries: 0,
                hedges: 0,
                served_by_tier: [0; 3],
            },
            chaos,
        };
        let scheduler = std::thread::spawn(move || scheduler_state.run(event_rx));

        let handles = specs
            .iter()
            .enumerate()
            .map(|(id, spec)| {
                let (completion_tx, completions) = channel::<Completion>();
                ClientHandle {
                    id,
                    tenant: spec.tenant,
                    seq: 0,
                    last_arrival_ns: 0,
                    expected_shapes: Arc::clone(&expected_shapes),
                    functional: config.functional,
                    events: event_tx.clone(),
                    completion_tx,
                    completions,
                    done: false,
                }
            })
            .collect();

        let mut designs: Vec<String> = Vec::new();
        for p in fleet.partitions() {
            let label = p.chip().design().label().to_string();
            if !designs.contains(&label) {
                designs.push(label);
            }
        }
        Ok((
            Server {
                events: event_tx,
                scheduler,
                workers,
                network: fleet
                    .partitions()
                    .iter()
                    .map(|p| p.chip().name())
                    .collect::<Vec<_>>()
                    .join("+"),
                design: designs.join("+"),
                replicas: fleet.replicas(),
                clients: specs.len(),
                max_batch: config.max_batch,
                max_wait_ns: config.max_wait_ns,
                policy_name: config.policy.name().to_string(),
                functional: config.functional,
                tenant_classes: config.tenants.clone(),
                partition_names: fleet
                    .partitions()
                    .iter()
                    .map(|p| p.chip().name().to_string())
                    .collect(),
                partition_replicas: fleet.partitions().iter().map(|p| p.replicas()).collect(),
                alert_policy: (config.scrape.is_some() && tele.is_enabled())
                    .then(|| config.alerts.clone().unwrap_or_default()),
                telemetry: tele,
            },
            handles,
        ))
    }

    /// Drains outstanding work, joins every thread, and returns the
    /// session report. Every [`ClientHandle`] must be finished or
    /// dropped first, or this blocks waiting for them.
    ///
    /// # Panics
    ///
    /// Panics with [`ServerError::SchedulerFailed`] when the scheduler
    /// thread died (a panicking custom [`AdmissionPolicy`] surfaces
    /// here) and with [`ServerError::ReplicaFailed`] when a replica
    /// worker died — use [`Server::try_finish`] to handle both cases as
    /// values.
    pub fn finish(self) -> ServerReport {
        match self.try_finish() {
            Ok(report) => report,
            Err(e) => panic!("server shutdown failed: {e}"),
        }
    }

    /// [`Server::finish`], but a dead thread comes back as a value
    /// instead of a panic: [`ServerError::ReplicaFailed`] names the
    /// partition and replica of a dead worker, and
    /// [`ServerError::SchedulerFailed`] carries the scheduler thread's
    /// panic message (the scheduler owns the virtual clock, so there is
    /// no meaningful report without it). Every surviving thread is
    /// still joined first on both paths, so nothing is leaked.
    ///
    /// # Errors
    ///
    /// [`ServerError::SchedulerFailed`] when the scheduler thread
    /// panicked; otherwise [`ServerError::ReplicaFailed`] for the first
    /// (by partition, then replica index) worker thread that panicked
    /// instead of reporting its statistics.
    pub fn try_finish(self) -> Result<ServerReport, ServerError> {
        drop(self.events);
        let mut sched = match self.scheduler.join() {
            Ok(sched) => sched,
            Err(payload) => {
                // The unwinding scheduler dropped its batch senders, so
                // the workers drain and exit; join them before
                // reporting, leaking nothing on the error path.
                for (_, worker) in self.workers {
                    let _ = worker.join();
                }
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return Err(ServerError::SchedulerFailed { message });
            }
        };
        // Dropping the batch senders releases the workers: they drain
        // their queues and return.
        let mut alerts: Vec<AlertReport> = Vec::new();
        for part in &mut sched.parts {
            part.replica_tx.clear();
            if let Some(obs) = part.obs.take() {
                alerts.extend(obs.into_reports());
            }
        }
        let mut per_part_stats: Vec<Vec<ReplicaStats>> =
            (0..sched.parts.len()).map(|_| Vec::new()).collect();
        let mut failed_worker: Option<(usize, usize)> = None;
        for (p, worker) in self.workers {
            let replica = per_part_stats[p].len();
            match worker.join() {
                Ok(stats) => per_part_stats[p].push(stats),
                Err(_) => {
                    if failed_worker.is_none() {
                        failed_worker = Some((p, replica));
                    }
                    per_part_stats[p].push(ReplicaStats::default());
                }
            }
        }
        if let Some((partition, replica)) = failed_worker {
            return Err(ServerError::ReplicaFailed { partition, replica });
        }
        let first_arrival_ns = if sched.out.first_arrival_ns == u64::MAX {
            0
        } else {
            sched.out.first_arrival_ns
        };
        let span_ns = sched
            .out
            .last_completion_ns
            .saturating_sub(first_arrival_ns);
        let mut replica_reports = Vec::with_capacity(self.replicas);
        for (pi, stats) in per_part_stats.iter().enumerate() {
            for (ri, s) in stats.iter().enumerate() {
                let (batches, images, busy_ns) = sched.parts[pi].per_replica[ri];
                replica_reports.push(ReplicaReport {
                    partition: pi,
                    replica: ri,
                    batches,
                    images,
                    busy_ns,
                    utilization: if span_ns == 0 {
                        0.0
                    } else {
                        busy_ns as f64 / span_ns as f64
                    },
                    host_ns: s.host_ns,
                });
            }
        }
        let partition_reports = sched
            .parts
            .iter()
            .enumerate()
            .map(|(pi, part)| PartitionReport {
                partition: pi,
                network: self.partition_names[pi].clone(),
                replicas_provisioned: self.partition_replicas[pi],
                replicas_active: part.active,
                offered: part.offered,
                served: part.served,
                shed: part.shed,
                batches: part.batches,
                total: part.total.clone(),
                modeled_busy_ns: part.modeled_busy_ns,
                runtime_modeled_ns: per_part_stats[pi]
                    .iter()
                    .map(|s| s.runtime_modeled_ns)
                    .sum(),
                batches_reconciled: per_part_stats[pi].iter().all(|s| s.unreconciled == 0),
                scale_events: part.scale_events.clone(),
                brownout_events: part.brownout_events.clone(),
                served_by_tier: part.served_by_tier.to_vec(),
            })
            .collect::<Vec<_>>();
        let tenant_reports = self
            .tenant_classes
            .iter()
            .zip(sched.tenants)
            .enumerate()
            .map(|(ti, (class, stat))| {
                // Fold the scheduler's per-tenant ledgers into the
                // metrics plane once at shutdown — the hot path records
                // into the report histograms only, never twice.
                self.telemetry
                    .histogram(
                        "red_request_queue_wait_ns",
                        "Virtual-clock queue wait per served request",
                        &[("tenant", &class.name)],
                    )
                    .merge(&stat.queue_wait);
                self.telemetry
                    .histogram(
                        "red_request_total_ns",
                        "Virtual-clock arrival-to-completion latency per served request",
                        &[("tenant", &class.name)],
                    )
                    .merge(&stat.total);
                TenantReport {
                    tenant: ti,
                    name: class.name.clone(),
                    weight: class.weight,
                    priority: class.priority,
                    slo_ns: class.slo_ns,
                    offered: stat.offered,
                    served: stat.served,
                    shed: stat.shed,
                    queue_wait: stat.queue_wait,
                    total: stat.total,
                }
            })
            .collect();
        let flat_stats: Vec<&ReplicaStats> = per_part_stats.iter().flatten().collect();
        let max_observed_error = flat_stats
            .iter()
            .map(|s| s.max_observed_error)
            .fold(0.0, f64::max);
        let precision_error_bound = flat_stats.iter().map(|s| s.error_bound).fold(0.0, f64::max);
        // The end-of-session `error-bound` rule: the worst observed
        // degradation error has consumed the policy's margin of the
        // advertised worst-case bound. Evaluated here because the
        // observed error exists only after the workers join; it never
        // resolves (there is nothing after session end to calm down).
        if let Some(policy) = &self.alert_policy {
            if policy.error_bound_breached(max_observed_error, precision_error_bound) {
                self.telemetry
                    .counter(
                        "red_alerts_fired_total",
                        "Alert-rule fire edges",
                        &[("rule", "error-bound")],
                    )
                    .add(1);
                alerts.push(AlertReport {
                    partition: 0,
                    rule: "error-bound".to_string(),
                    tenant: None,
                    fired_at_ns: sched.out.last_completion_ns,
                    resolved_at_ns: None,
                    value: max_observed_error / precision_error_bound,
                });
            }
        }
        Ok(ServerReport {
            network: self.network,
            design: self.design,
            replicas: self.replicas,
            clients: self.clients,
            max_batch: self.max_batch,
            max_wait_ns: self.max_wait_ns,
            policy: self.policy_name,
            functional: self.functional,
            offered: sched.out.offered,
            served: sched.out.served,
            shed: sched.out.shed,
            failed: flat_stats.iter().map(|s| s.failed).sum::<u64>() + sched.out.send_failures,
            batches: sched.out.batches,
            queue_wait: sched.out.queue_wait,
            execute: sched.out.execute,
            total: sched.out.total,
            shed_wait: sched.out.shed_wait,
            batch_sizes: sched.out.batch_sizes,
            first_arrival_ns,
            last_completion_ns: sched.out.last_completion_ns,
            modeled_busy_ns: sched.out.modeled_busy_ns,
            runtime_modeled_ns: flat_stats.iter().map(|s| s.runtime_modeled_ns).sum(),
            batches_reconciled: flat_stats.iter().all(|s| s.unreconciled == 0),
            tenant_reports,
            partition_reports,
            replica_reports,
            host_exec_ns: flat_stats.iter().map(|s| s.host_ns).sum(),
            first_error: flat_stats.iter().find_map(|s| s.first_error.clone()),
            sheds_by_reason: ShedReason::ALL
                .iter()
                .zip(&sched.out.sheds_by_reason)
                .map(|(reason, &n)| (reason.as_str().to_string(), n))
                .collect(),
            faults_injected: sched.out.faults_injected,
            reprograms: sched.out.reprograms,
            retries: sched.out.retries,
            hedges: sched.out.hedges,
            served_by_tier: ExecPrecision::ALL
                .iter()
                .map(|t| (t.name().to_string(), sched.out.served_by_tier[t.index()]))
                .collect(),
            max_observed_error,
            precision_error_bound,
            alerts,
        })
    }
}

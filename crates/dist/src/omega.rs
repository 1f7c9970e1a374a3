//! What every node of a sharded sweep derives from a job: whether its
//! grid can be sharded at all, the fingerprint workers must echo, the
//! shard grid and probe plan a node evaluates, and how the integrated
//! probe records become Ω.

use crate::error::DistError;
use crate::frame::FrameError;
use crate::protocol::{scheme_from_u8, JobSpec};
use clado_core::{
    MeasureError, OmegaProvenance, ProbeId, ProbeRecord, SensitivityMatrix, SensitivityStats,
    ShardContext, ShardRunStats, ShardSpec,
};
use clado_estim::{
    complete_partial, estimation_fingerprint, resolved_probe_budget, EstimatorKind, ProbePlanner,
    DEFAULT_ALS_ITERS, DEFAULT_ALS_RANK,
};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::BitWidthSet;
use clado_telemetry::Telemetry;
use std::collections::HashMap;

/// Resolves a job's estimator tag for a grid-sharded sweep: `Ok(None)`
/// for an exact sweep (tag 0), `Ok(Some(kind))` for a shardable
/// estimator.
///
/// # Errors
///
/// The reason, for hutchinson (diagonal-only, so not grid-shardable)
/// and for unknown tags.
pub fn grid_estimator(tag: u8) -> Result<Option<EstimatorKind>, String> {
    match tag {
        0 => Ok(None),
        tag => match EstimatorKind::from_tag(tag) {
            Some(EstimatorKind::Hutchinson) => Err(
                "hutchinson estimation is diagonal-only and not grid-shardable; \
                 run it single-process"
                    .into(),
            ),
            Some(kind) => Ok(Some(kind)),
            None => Err(format!("unknown estimator tag {tag}")),
        },
    }
}

/// The fingerprint a job's workers must echo in `Ready`, and the key of
/// its CLSJ journal: the estimator fingerprint (configuration ⊕ kind ⊕
/// resolved budget ⊕ seed) for an estimation job, so an estimation
/// sweep never mixes records with an exact one or with another
/// estimator's; the plain configuration fingerprint otherwise.
pub fn job_fingerprint(
    ctx: &ShardContext,
    estimator: Option<EstimatorKind>,
    probe_budget: u64,
    estimator_seed: u64,
) -> u64 {
    match estimator {
        Some(kind) => estimation_fingerprint(ctx, kind, probe_budget as usize, estimator_seed),
        None => ctx.fingerprint(),
    }
}

/// A job rebuilt on one node: its shard grid, its estimator, the probe
/// plan of an estimation job, and the fingerprint the node echoes in
/// `Ready`. Workers and the serve daemon both build it from the same
/// [`JobSpec`], so they agree on grid, plan and fingerprint by
/// construction. The base and diagonal probes a plan measures are
/// bitwise identical on every node, so every node derives the *same*
/// plan from just the estimator, budget and seed.
pub struct NodeJob {
    /// The job's shard grid over this node's network and set.
    pub ctx: ShardContext,
    /// The resolved estimator (`None` for an exact sweep).
    pub estimator: Option<EstimatorKind>,
    /// The probe plan of an estimation job.
    pub planner: Option<ProbePlanner>,
    /// Evaluations the probe plan spent on this node.
    pub plan_stats: ShardRunStats,
    /// See [`job_fingerprint`].
    pub fingerprint: u64,
}

impl NodeJob {
    /// Rebuilds `job` over `network` and `set`, planning its probes when
    /// it is an estimation job.
    ///
    /// # Errors
    ///
    /// [`DistError::Frame`] for an empty bit set or an unknown scheme,
    /// [`DistError::BadJob`] for an estimator that cannot be sharded,
    /// and [`DistError::Measure`] when the plan's base loss stays
    /// non-finite.
    pub fn build(
        job: &JobSpec,
        network: &mut Network,
        set: &DataSplit,
        telemetry: &Telemetry,
    ) -> Result<Self, DistError> {
        if job.bits.is_empty() {
            return Err(FrameError::Malformed("job carries no bit-widths".into()).into());
        }
        let ctx = ShardContext::new(
            network,
            set.len(),
            &BitWidthSet::new(&job.bits),
            scheme_from_u8(job.scheme)?,
            job.batch_size as usize,
            job.use_prefix_cache,
        );
        let estimator = grid_estimator(job.estimator).map_err(DistError::BadJob)?;
        let (planner, plan_stats) = match estimator {
            Some(kind) => {
                let budget = resolved_probe_budget(&ctx, job.probe_budget as usize);
                let (planner, _fresh, stats) = ProbePlanner::build(
                    &ctx,
                    network,
                    set,
                    telemetry,
                    kind,
                    budget,
                    job.estimator_seed,
                    &HashMap::new(),
                )?;
                (Some(planner), stats)
            }
            None => (None, ShardRunStats::default()),
        };
        let fingerprint = job_fingerprint(&ctx, estimator, job.probe_budget, job.estimator_seed);
        Ok(Self {
            ctx,
            estimator,
            planner,
            plan_stats,
            fingerprint,
        })
    }

    /// Evaluates one shard. An estimation job routes every shard through
    /// its probe plan: base and diagonal shards replay the records the
    /// planner already measured, pair shards run only their selected
    /// probes.
    pub fn run_shard(
        &self,
        network: &mut Network,
        set: &DataSplit,
        shard: ShardSpec,
        telemetry: &Telemetry,
    ) -> (Vec<ProbeRecord>, ShardRunStats) {
        match &self.planner {
            Some(p) => p.run_shard(&self.ctx, network, set, shard, telemetry),
            None => self.ctx.run_shard(network, set, shard, telemetry),
        }
    }
}

/// Assembles Ω from a completed grid: the exact matrix for an exact
/// sweep, or — for an estimation sweep — the partial grid completed
/// exactly like the single-process path (same kind, ALS defaults and
/// seed), so the sharded result is bitwise identical to
/// `clado_estim::estimate_sensitivities`. `stats` carries the caller's
/// counters; its quarantine count and provenance are filled in here.
///
/// # Errors
///
/// [`MeasureError`] when probes are missing or the base loss is not
/// finite.
pub fn assemble_omega(
    ctx: &ShardContext,
    estimator: Option<EstimatorKind>,
    probe_budget: u64,
    estimator_seed: u64,
    records: &HashMap<ProbeId, ProbeRecord>,
    mut stats: SensitivityStats,
) -> Result<SensitivityMatrix, MeasureError> {
    let (matrix, base_loss, quarantined) = match estimator {
        Some(kind) => {
            let assembly = ctx.assemble_partial(records)?;
            let completed = complete_partial(
                kind,
                &assembly.g,
                &assembly.observed,
                DEFAULT_ALS_RANK,
                DEFAULT_ALS_ITERS,
                estimator_seed,
            );
            (completed, assembly.base_loss, assembly.quarantined)
        }
        None => ctx.assemble(records)?,
    };
    stats.quarantined = quarantined;
    stats.provenance = match estimator {
        Some(kind) => OmegaProvenance::estimated(
            kind.tag(),
            resolved_probe_budget(ctx, probe_budget as usize) as u64,
            estimator_seed,
        ),
        None => OmegaProvenance::exact(),
    };
    Ok(SensitivityMatrix::from_parts(
        matrix,
        ctx.num_layers(),
        ctx.bits().clone(),
        base_loss,
        stats,
    ))
}

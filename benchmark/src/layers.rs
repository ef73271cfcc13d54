//! Direct calls into each layer's public functions, timed once per
//! distinct circuit of the traced sample. These bypass the service, so
//! they may name functions outside the end-to-end stable surface.

use crate::roster::{Family, Workload};
use qgear::storage::{encoding_from_h5, encoding_to_h5};
use qgear::{QGear, QGearConfig};
use qgear_cluster::ClusterEngine;
use qgear_hdf5lite::{Compression, H5File};
use qgear_ir::fusion::{try_fuse, DEFAULT_FUSION_WIDTH};
use qgear_ir::schedule::{sweeps, SweepOptions, DEFAULT_SWEEP_WIDTH};
use qgear_ir::transpile::decompose_to_native;
use qgear_ir::{shape_digest, Circuit, TensorEncoding};
use qgear_num::scalar::Precision;
use qgear_perfmodel::project::ProjectOptions;
use qgear_perfmodel::{project_circuit, CostModel, ModelTarget};
use qgear_serve::{CircuitKey, Engine, JobSpec};
use qgear_statevec::checkpoint::{decode, encode, CheckpointCounters, StateCheckpoint};
use qgear_statevec::planner::{plan, PlannerCosts};
use qgear_statevec::{GpuDevice, RunOptions, RunOutput, SamplingConfig, Simulator};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one call took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// Summed seconds per layer call over the circuits measured.
#[derive(Default, Clone, Copy)]
pub struct LayerTimes {
    pub circuits: usize,
    pub transpile: f64,
    pub shape_digest: f64,
    pub hashkey: f64,
    pub project: f64,
    pub fuse: f64,
    pub schedule: f64,
    pub plan: f64,
    pub direct_run: f64,
    pub encode: f64,
    pub h5_write: f64,
    pub h5_read: f64,
    pub decode: f64,
    pub transform: f64,
    pub cluster_run: f64,
    pub source_gates: usize,
    pub kernels: usize,
    pub h5_payload: usize,
    pub h5_file: usize,
}

impl LayerTimes {
    pub fn add(&mut self, o: &LayerTimes) {
        self.circuits += o.circuits;
        self.transpile += o.transpile;
        self.shape_digest += o.shape_digest;
        self.hashkey += o.hashkey;
        self.project += o.project;
        self.fuse += o.fuse;
        self.schedule += o.schedule;
        self.plan += o.plan;
        self.direct_run += o.direct_run;
        self.encode += o.encode;
        self.h5_write += o.h5_write;
        self.h5_read += o.h5_read;
        self.decode += o.decode;
        self.transform += o.transform;
        self.cluster_run += o.cluster_run;
        self.source_gates += o.source_gates;
        self.kernels += o.kernels;
        self.h5_payload += o.h5_payload;
        self.h5_file += o.h5_file;
    }

    /// Mean microseconds per circuit of a summed field.
    pub fn us(&self, total: f64) -> f64 {
        if self.circuits == 0 {
            0.0
        } else {
            total * 1e6 / self.circuits as f64
        }
    }

    /// Share of a direct run that does not scale with the state size.
    pub fn fixed_cost_frac(&self) -> f64 {
        if self.direct_run == 0.0 {
            0.0
        } else {
            (self.fuse + self.schedule) / self.direct_run
        }
    }
}

/// The options the service runs a dense job with.
fn service_run_options(spec: &JobSpec) -> RunOptions {
    RunOptions {
        shots: spec.shots,
        seed: spec.seed,
        keep_state: false,
        memory_limit: Some(GpuDevice::a100_40gb().memory_bytes),
        ..RunOptions::default()
    }
}

fn run_on<S: Simulator<f32> + Simulator<f64>>(engine: &S, c: &Circuit, spec: &JobSpec) -> f64 {
    let opts = service_run_options(spec);
    match spec.precision {
        Precision::Fp32 => timed(|| Simulator::<f32>::run(engine, c, &opts).expect("direct run")).1,
        Precision::Fp64 => timed(|| Simulator::<f64>::run(engine, c, &opts).expect("direct run")).1,
    }
}

/// Time every layer once on `spec`'s circuit. `shards` is the width the
/// service ran it at (1 = dense).
pub fn measure(spec: &JobSpec, shards: usize) -> LayerTimes {
    let c = &spec.circuit;
    let mut into = LayerTimes {
        circuits: 1,
        ..Default::default()
    };
    let ((native, _), t) = timed(|| decompose_to_native(c));
    into.transpile += t;
    into.shape_digest += timed(|| shape_digest(&native)).1;
    into.hashkey +=
        timed(|| CircuitKey::for_spec(&native, spec, DEFAULT_FUSION_WIDTH, Engine::Dense)).1;
    let popts = ProjectOptions {
        precision: spec.precision,
        shots: spec.shots,
        fusion_width: DEFAULT_FUSION_WIDTH,
    };
    let model = CostModel::paper_testbed();
    into.project += timed(|| {
        project_circuit(
            &model,
            &native,
            ModelTarget::QGearGpu { devices: shards },
            &popts,
        )
        .expect("projects")
    })
    .1;

    let (unitary, _) = native.split_measurements();
    let (program, t) = timed(|| try_fuse(&unitary, DEFAULT_FUSION_WIDTH).expect("fuses"));
    into.fuse += t;
    into.source_gates += program.source_gate_count();
    into.kernels += program.blocks.len();
    into.schedule += timed(|| sweeps(&program, &SweepOptions::default())).1;
    into.plan += timed(|| {
        plan(
            &native,
            DEFAULT_FUSION_WIDTH,
            DEFAULT_SWEEP_WIDTH,
            true,
            &PlannerCosts::host_reference(),
            spec.precision.bytes_per_amplitude(),
        )
        .expect("plans")
    })
    .1;
    into.direct_run += run_on(&GpuDevice::a100_40gb(), &native, spec);
    if shards > 1 {
        into.cluster_run += run_on(&ClusterEngine::a100_cluster(shards), &native, spec);
    }

    // The storage hand-off, a stage at a time.
    let (enc, t) =
        timed(|| TensorEncoding::encode(std::slice::from_ref(&native), None).expect("encodes"));
    into.encode += t;
    let file = encoding_to_h5(&enc).expect("container");
    into.h5_payload += file.payload_bytes();
    let (bytes, t) = timed(|| file.to_bytes(Compression::ShuffleRle));
    into.h5_write += t;
    into.h5_file += bytes.len();
    let (back, t) = timed(|| H5File::from_bytes(&bytes).expect("container reads"));
    into.h5_read += t;
    into.decode += timed(|| {
        encoding_from_h5(&back)
            .expect("encoding")
            .decode()
            .expect("decodes")
    })
    .1;
    into.transform += timed(|| {
        QGear::new(QGearConfig::default())
            .transform(c)
            .expect("transforms")
    })
    .1;
    into
}

/// Seconds to encode and decode a QCKP checkpoint of `spec`'s final fp64
/// state, and its size in bytes.
pub fn checkpoint_roundtrip(spec: &JobSpec) -> (f64, f64, usize) {
    let opts = RunOptions {
        shots: 0,
        keep_state: true,
        ..RunOptions::default()
    };
    let out: RunOutput<f64> = GpuDevice::a100_40gb()
        .run(&spec.circuit, &opts)
        .expect("state for checkpoint");
    let ck = StateCheckpoint {
        num_qubits: spec.circuit.num_qubits(),
        cursor: 1,
        steps_total: 1,
        fingerprint: 0,
        counters: CheckpointCounters::default(),
        sampling: SamplingConfig::single(spec.shots, spec.seed),
        state: out.state.expect("state kept"),
    };
    let (bytes, enc) = timed(|| encode(&ck));
    let (_, dec) = timed(|| decode::<f64>(&bytes).expect("checkpoint decodes"));
    (enc, dec, bytes.len())
}

/// Which layer totals a job's circuit is added to: all of them, and its
/// family's when the workload has paper families.
pub fn family_slot(workload: Workload, family: Family) -> Option<usize> {
    if matches!(workload, Workload::DenseLarge | Workload::ServeMixed) {
        Family::PAPER.iter().position(|f| *f == family)
    } else {
        None
    }
}

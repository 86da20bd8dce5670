//! Host-side runtime: buffers, launch configurations and kernel execution.

use lift_codegen::clike::{CType, Kernel};

use crate::device::DeviceProfile;
use crate::exec::{PlanMachine, SimError};
use crate::perf::KernelStats;
use crate::plan::{Plan, PlannedKernel};
use crate::reference::Machine;

/// A host/device buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 32-bit integers.
    I32(Vec<i32>),
}

impl BufferData {
    /// A zero-filled buffer for a kernel parameter of element type `elem`
    /// (`bool` parameters are stored as integers).
    pub(crate) fn zeros(elem: CType, len: usize) -> Self {
        match elem {
            CType::Float => BufferData::F32(vec![0.0; len]),
            CType::Int | CType::Bool => BufferData::I32(vec![0; len]),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            BufferData::F32(v) => v.len(),
            BufferData::I32(v) => v.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the float data.
    ///
    /// # Panics
    ///
    /// Panics if the buffer holds integers.
    pub fn as_f32(&self) -> &[f32] {
        match self {
            BufferData::F32(v) => v,
            BufferData::I32(_) => panic!("expected f32 buffer"),
        }
    }

    /// Borrows the integer data.
    ///
    /// # Panics
    ///
    /// Panics if the buffer holds floats.
    pub fn as_i32(&self) -> &[i32] {
        match self {
            BufferData::I32(v) => v,
            BufferData::F32(_) => panic!("expected i32 buffer"),
        }
    }
}

impl From<Vec<f32>> for BufferData {
    fn from(v: Vec<f32>) -> Self {
        BufferData::F32(v)
    }
}

impl From<Vec<i32>> for BufferData {
    fn from(v: Vec<i32>) -> Self {
        BufferData::I32(v)
    }
}

/// An NDRange launch configuration (global and local sizes per dimension;
/// unused dimensions are 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Global work size per dimension.
    pub global: [usize; 3],
    /// Work-group size per dimension.
    pub local: [usize; 3],
}

impl LaunchConfig {
    /// One-dimensional launch.
    pub fn d1(global: usize, local: usize) -> Self {
        LaunchConfig {
            global: [global, 1, 1],
            local: [local, 1, 1],
        }
    }

    /// Two-dimensional launch (`x` fastest-varying, as in OpenCL).
    pub fn d2(gx: usize, gy: usize, lx: usize, ly: usize) -> Self {
        LaunchConfig {
            global: [gx, gy, 1],
            local: [lx, ly, 1],
        }
    }

    /// Three-dimensional launch.
    pub fn d3(g: [usize; 3], l: [usize; 3]) -> Self {
        LaunchConfig {
            global: g,
            local: l,
        }
    }

    /// Work-groups per dimension.
    pub fn groups(&self) -> [usize; 3] {
        [
            self.global[0] / self.local[0],
            self.global[1] / self.local[1],
            self.global[2] / self.local[2],
        ]
    }

    /// Work-items per group.
    pub fn wg_size(&self) -> usize {
        self.local.iter().product()
    }

    /// Rejects a launch `dev` cannot run: a zero size, a global size the
    /// work-group does not divide, or a work-group over the device maximum.
    /// Runs and cost estimates share it.
    pub(crate) fn validate(&self, dev: &DeviceProfile) -> Result<(), SimError> {
        for d in 0..3 {
            if self.local[d] == 0 || self.global[d] == 0 {
                return Err(SimError::BadLaunch(format!("zero size in dimension {d}")));
            }
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(SimError::BadLaunch(format!(
                    "global size {} not a multiple of local size {} in dimension {d}",
                    self.global[d], self.local[d]
                )));
            }
        }
        if self.wg_size() > dev.max_wg_size {
            return Err(SimError::BadLaunch(format!(
                "work-group size {} exceeds device maximum {}",
                self.wg_size(),
                dev.max_wg_size
            )));
        }
        Ok(())
    }
}

/// The result of one kernel execution.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The output buffer.
    pub output: BufferData,
    /// Collected execution statistics.
    pub stats: KernelStats,
    /// Modeled runtime in seconds on the device profile.
    pub time_s: f64,
}

/// A virtual OpenCL device with a fixed [`DeviceProfile`].
///
/// Launches execute on the bytecode plan engine ([`crate::plan`]);
/// [`VirtualDevice::run_reference`] runs the same launch on the
/// tree-walking reference interpreter, which the differential tests
/// compare the plan engine against.
///
/// The device is **immutable and freely shareable across threads**: the
/// parallel tuner hands one `&VirtualDevice` to every worker evaluating a
/// configuration. All mutable execution state (argument buffers, the
/// work-item interpreter, per-run statistics) is created locally inside
/// each [`VirtualDevice::run`] call, so concurrent runs never observe each
/// other.
#[derive(Debug, Clone)]
pub struct VirtualDevice {
    profile: DeviceProfile,
}

// Compile-time audit of the guarantee above: concurrent tuning relies on
// sharing devices (and compiled kernels, behind `Arc`) across worker
// threads. If a future change introduces interior mutability here, this
// must fail to compile rather than silently race.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VirtualDevice>();
    assert_send_sync::<DeviceProfile>();
    assert_send_sync::<BufferData>();
    assert_send_sync::<LaunchConfig>();
};

impl VirtualDevice {
    /// Creates a device with the given profile.
    pub fn new(profile: DeviceProfile) -> Self {
        VirtualDevice { profile }
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Executes `kernel` on `inputs` (one per non-output parameter, in
    /// order) with the given launch configuration.
    ///
    /// The output buffer is allocated zero-initialised by the runtime. The
    /// kernel is plan-compiled on every call; use
    /// [`VirtualDevice::run_planned`] with a [`PlannedKernel`] to compile
    /// once and run many times (the tuning hot path does).
    ///
    /// # Errors
    ///
    /// Fails on plan compilation, on launch misconfiguration (sizes,
    /// local-memory overflow, argument count, length or element type) and
    /// on any runtime fault the executor detects (out-of-bounds access,
    /// barrier divergence, division by zero, a user function returning
    /// another type than it declares).
    pub fn run(
        &self,
        kernel: &Kernel,
        inputs: &[BufferData],
        cfg: LaunchConfig,
    ) -> Result<RunOutput, SimError> {
        let plan = Plan::compile(kernel)?;
        self.run_inner(kernel, Some(&plan), inputs, cfg)
    }

    /// Executes a pre-planned kernel: the plan is compiled at most once for
    /// the kernel's lifetime (the driver's kernel cache holds
    /// [`PlannedKernel`]s, so tuning a variant across hundreds of
    /// configurations never re-plans).
    ///
    /// # Errors
    ///
    /// As [`VirtualDevice::run`].
    pub fn run_planned(
        &self,
        kernel: &PlannedKernel,
        inputs: &[BufferData],
        cfg: LaunchConfig,
    ) -> Result<RunOutput, SimError> {
        let plan = kernel.plan()?;
        self.run_inner(kernel.kernel(), Some(&plan), inputs, cfg)
    }

    /// Executes `kernel` like [`VirtualDevice::run`], but on the original
    /// tree-walking interpreter: the executable reference semantics the
    /// plan engine must match bit for bit (outputs, [`KernelStats`] and
    /// modeled time). Launch validation and buffer binding are shared with
    /// [`VirtualDevice::run`]; only the executor differs. The differential
    /// tests are its callers — it is far slower than the plan engine.
    ///
    /// # Errors
    ///
    /// As [`VirtualDevice::run`], minus plan compilation.
    pub fn run_reference(
        &self,
        kernel: &Kernel,
        inputs: &[BufferData],
        cfg: LaunchConfig,
    ) -> Result<RunOutput, SimError> {
        self.run_inner(kernel, None, inputs, cfg)
    }

    /// Validates the launch, binds buffers and drives the plan engine, or
    /// the reference interpreter when `plan` is `None`.
    fn run_inner(
        &self,
        kernel: &Kernel,
        plan: Option<&Plan>,
        inputs: &[BufferData],
        cfg: LaunchConfig,
    ) -> Result<RunOutput, SimError> {
        cfg.validate(&self.profile)?;
        if kernel.local_bytes() > self.profile.lmem_bytes_per_cu {
            return Err(SimError::BadLaunch(format!(
                "kernel uses {} bytes of local memory, device has {}",
                kernel.local_bytes(),
                self.profile.lmem_bytes_per_cu
            )));
        }
        let n_in = kernel.params.iter().filter(|p| !p.is_output).count();
        if inputs.len() != n_in {
            return Err(SimError::BadLaunch(format!(
                "kernel expects {n_in} input buffers, got {}",
                inputs.len()
            )));
        }

        let mut buffers: Vec<BufferData> = Vec::with_capacity(kernel.params.len());
        let mut input_iter = inputs.iter();
        for p in &kernel.params {
            if p.is_output {
                buffers.push(BufferData::zeros(p.elem, p.len));
            } else {
                let data = input_iter.next().expect("counted above").clone();
                if data.len() != p.len {
                    return Err(SimError::BadLaunch(format!(
                        "buffer for `{}` has {} elements, kernel expects {}",
                        p.var.name(),
                        data.len(),
                        p.len
                    )));
                }
                // The plan engine reads each buffer at its declared type.
                if !matches!(
                    (&data, p.elem),
                    (BufferData::F32(_), CType::Float)
                        | (BufferData::I32(_), CType::Int | CType::Bool)
                ) {
                    return Err(SimError::BadLaunch(format!(
                        "buffer for `{}` does not hold {} elements",
                        p.var.name(),
                        p.elem.c_name()
                    )));
                }
                buffers.push(data);
            }
        }

        let warp = self.profile.warp_width as usize;
        let stats = match plan {
            Some(plan) => {
                let mut machine = PlanMachine::new(plan, &mut buffers, cfg, warp);
                machine.run()?;
                machine.stats
            }
            None => {
                let mut machine = Machine::new(kernel, &mut buffers, cfg, warp)?;
                machine.run()?;
                machine.stats
            }
        };
        let time_s = stats.model_time(&self.profile);

        let out_pos = kernel
            .params
            .iter()
            .position(|p| p.is_output)
            .expect("kernel has an output");
        Ok(RunOutput {
            output: buffers.swap_remove(out_pos),
            stats,
            time_s,
        })
    }
}

/// How buffers rotate between time steps in [`VirtualDevice::run_iterated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rotation {
    /// One state grid: the output becomes the (only) input
    /// (Jacobi/heat-style `u ← f(u)`).
    SingleBuffer,
    /// Two state grids (leapfrog, as in the acoustic simulation §3.5):
    /// `prev ← cur`, `cur ← out`; any further inputs stay fixed.
    Leapfrog,
}

/// Accumulated outcome of a multi-step run.
#[derive(Debug, Clone)]
pub struct IteratedOutput {
    /// The final state buffer.
    pub output: BufferData,
    /// Total modeled time over all launches.
    pub time_s: f64,
    /// Number of kernel launches executed.
    pub steps: usize,
}

impl VirtualDevice {
    /// Executes `steps` time steps of a stencil kernel, rotating buffers on
    /// the host between launches — this is how the paper's `iterate`
    /// semantics are realised at evaluation time (each launch performs one
    /// iteration; see §6).
    ///
    /// # Errors
    ///
    /// Fails as [`VirtualDevice::run`] does; additionally when `inputs`
    /// does not provide the state buffers the rotation policy needs.
    pub fn run_iterated(
        &self,
        kernel: &Kernel,
        inputs: &[BufferData],
        cfg: LaunchConfig,
        steps: usize,
        rotation: Rotation,
    ) -> Result<IteratedOutput, SimError> {
        // Compile once, launch `steps` times.
        let plan = Plan::compile(kernel)?;
        self.run_iterated_inner(kernel, &plan, inputs, cfg, steps, rotation)
    }

    /// [`VirtualDevice::run_iterated`] for a pre-planned kernel — the plan
    /// is reused across all `steps` launches (and every other launch of the
    /// same [`PlannedKernel`]).
    ///
    /// # Errors
    ///
    /// As [`VirtualDevice::run_iterated`].
    pub fn run_iterated_planned(
        &self,
        kernel: &PlannedKernel,
        inputs: &[BufferData],
        cfg: LaunchConfig,
        steps: usize,
        rotation: Rotation,
    ) -> Result<IteratedOutput, SimError> {
        let plan = kernel.plan()?;
        self.run_iterated_inner(kernel.kernel(), &plan, inputs, cfg, steps, rotation)
    }

    fn run_iterated_inner(
        &self,
        kernel: &Kernel,
        plan: &Plan,
        inputs: &[BufferData],
        cfg: LaunchConfig,
        steps: usize,
        rotation: Rotation,
    ) -> Result<IteratedOutput, SimError> {
        let needed = match rotation {
            Rotation::SingleBuffer => 1,
            Rotation::Leapfrog => 2,
        };
        if inputs.len() < needed {
            return Err(SimError::BadLaunch(format!(
                "{rotation:?} rotation needs {needed} state buffers, got {}",
                inputs.len()
            )));
        }
        let mut state: Vec<BufferData> = inputs.to_vec();
        let mut total_time = 0.0;
        let mut last = state[needed - 1].clone();
        for _ in 0..steps {
            let out = self.run_inner(kernel, Some(plan), &state, cfg)?;
            total_time += out.time_s;
            match rotation {
                Rotation::SingleBuffer => {
                    state[0] = out.output.clone();
                }
                Rotation::Leapfrog => {
                    state[0] = state[1].clone();
                    state[1] = out.output.clone();
                }
            }
            last = out.output;
        }
        Ok(IteratedOutput {
            output: last,
            time_s: total_time,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_codegen::compile_kernel;
    use lift_core::prelude::*;

    fn jacobi3pt_lowered(n: i64) -> lift_codegen::Kernel {
        let prog = lam_named("A", Type::array(Type::f32(), n), |a| {
            let sum = lam(Type::array(Type::f32(), 3), |nbh| {
                reduce_seq(add_f32(), Expr::f32(0.0), nbh)
            });
            map_glb(0, sum, slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
        });
        compile_kernel("jacobi3pt", &prog).expect("compiles")
    }

    fn reference_jacobi3pt(input: &[f32]) -> Vec<f32> {
        let n = input.len() as i64;
        (0..n)
            .map(|i| {
                let at = |j: i64| input[j.clamp(0, n - 1) as usize];
                at(i - 1) + at(i) + at(i + 1)
            })
            .collect()
    }

    #[test]
    fn executes_listing2_bit_exact() {
        let n = 64;
        let kernel = jacobi3pt_lowered(n as i64);
        let input: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let out = dev
            .run(&kernel, &[input.clone().into()], LaunchConfig::d1(64, 16))
            .expect("runs");
        assert_eq!(out.output.as_f32(), reference_jacobi3pt(&input).as_slice());
        assert!(out.stats.global_loads > 0);
        assert!(out.time_s > 0.0);
    }

    #[test]
    fn fewer_threads_than_elements_still_correct() {
        let n = 64;
        let kernel = jacobi3pt_lowered(n as i64);
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let dev = VirtualDevice::new(DeviceProfile::mali_t628());
        // Only 16 global threads: the generated loop strides.
        let out = dev
            .run(&kernel, &[input.clone().into()], LaunchConfig::d1(16, 8))
            .expect("runs");
        assert_eq!(out.output.as_f32(), reference_jacobi3pt(&input).as_slice());
    }

    #[test]
    fn misaligned_launch_rejected() {
        let kernel = jacobi3pt_lowered(64);
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let inputs = [vec![0.0f32; 64].into()];
        let launch = LaunchConfig::d1(60, 16);
        // The reference interpreter shares the launch validation.
        for err in [
            dev.run(&kernel, &inputs, launch).unwrap_err(),
            dev.run_reference(&kernel, &inputs, launch).unwrap_err(),
        ] {
            assert!(matches!(err, SimError::BadLaunch(_)));
        }
    }

    #[test]
    fn wrong_buffer_size_rejected() {
        let kernel = jacobi3pt_lowered(64);
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let inputs = [vec![0.0f32; 63].into()];
        let launch = LaunchConfig::d1(64, 16);
        // The reference interpreter shares the buffer binding.
        for err in [
            dev.run(&kernel, &inputs, launch).unwrap_err(),
            dev.run_reference(&kernel, &inputs, launch).unwrap_err(),
        ] {
            assert!(matches!(err, SimError::BadLaunch(_)));
        }
    }

    #[test]
    fn wrong_buffer_type_rejected() {
        let kernel = jacobi3pt_lowered(64);
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let inputs = [vec![0i32; 64].into()];
        let launch = LaunchConfig::d1(64, 16);
        for err in [
            dev.run(&kernel, &inputs, launch).unwrap_err(),
            dev.run_reference(&kernel, &inputs, launch).unwrap_err(),
        ] {
            assert!(matches!(err, SimError::BadLaunch(_)), "{err:?}");
        }
    }

    #[test]
    fn coalesced_access_counts_transactions() {
        let n = 1024;
        let kernel = jacobi3pt_lowered(n as i64);
        let input: Vec<f32> = vec![1.0; n];
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let out = dev
            .run(&kernel, &[input.into()], LaunchConfig::d1(1024, 256))
            .expect("runs");
        // 3 loads per element = 3072 raw loads; coalescing brings the
        // transaction count well below raw (one 128B segment covers 32
        // consecutive floats for a 32-wide warp).
        assert_eq!(out.stats.global_loads, 3 * n as u64);
        assert!(
            out.stats.load_transactions < out.stats.global_loads / 8,
            "expected coalescing: {} transactions for {} loads",
            out.stats.load_transactions,
            out.stats.global_loads
        );
        // Compulsory traffic: the input spans 1024*4/128 = 32 segments, plus
        // the store side.
        assert!(out.stats.unique_segments >= 32 + 32);
    }

    #[test]
    fn run_iterated_matches_the_ir_iterate_semantics() {
        // Host-side stepping must equal the `iterate` primitive evaluated
        // by the reference interpreter.
        let n = 16usize;
        let kernel = jacobi3pt_lowered(n as i64);
        let input: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).sin()).collect();
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let steps = 3usize;
        let stepped = dev
            .run_iterated(
                &kernel,
                &[input.clone().into()],
                LaunchConfig::d1(16, 8),
                steps,
                Rotation::SingleBuffer,
            )
            .expect("runs");
        assert_eq!(stepped.steps, steps);

        // The same program via Pattern::Iterate through the evaluator.
        let one_step = lam(Type::array(Type::f32(), n), |a| {
            let sum = lam(Type::array(Type::f32(), 3), |nbh| {
                reduce_seq(add_f32(), Expr::f32(0.0), nbh)
            });
            map(sum, slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
        });
        let iterated = lam(Type::array(Type::f32(), n), move |a| {
            iterate(steps, one_step, a)
        });
        let expected =
            lift_core::eval::eval_fun(&iterated, &[lift_core::eval::DataValue::from_f32s(input)])
                .expect("evaluates")
                .flatten_f32();
        assert_eq!(stepped.output.as_f32(), expected.as_slice());
    }

    #[test]
    fn run_iterated_rejects_missing_state() {
        let kernel = jacobi3pt_lowered(8);
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let err = dev
            .run_iterated(&kernel, &[], LaunchConfig::d1(8, 4), 2, Rotation::Leapfrog)
            .expect_err("must fail");
        assert!(matches!(err, SimError::BadLaunch(_)));
    }

    #[test]
    fn local_memory_tile_kernel_runs_with_barrier_semantics() {
        // Tiled variant: work-group stages its tile into local memory;
        // correctness requires the barrier between copy and compute.
        let n = 64i64;
        let prog = lam_named("A", Type::array(Type::f32(), n), |a| {
            let tile_ty = Type::array(Type::f32(), 10);
            let per_tile = lam(tile_ty, |tile| {
                let copy = FunDecl::pattern(lift_core::pattern::Pattern::Map {
                    kind: lift_core::pattern::MapKind::Lcl(0),
                    f: id(),
                });
                let copied = Expr::apply(to_local(copy), [tile]);
                let sum = lam(Type::array(Type::f32(), 3), |nbh| {
                    reduce_seq(add_f32(), Expr::f32(0.0), nbh)
                });
                map_lcl(0, sum, slide(3, 1, copied))
            });
            join(map_wrg(
                0,
                per_tile,
                slide(10, 8, pad(1, 1, Boundary::Clamp, a)),
            ))
        });
        let kernel = compile_kernel("jacobi3pt_tiled", &prog).expect("compiles");
        let input: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5).collect();
        let dev = VirtualDevice::new(DeviceProfile::k20c());
        let out = dev
            .run(&kernel, &[input.clone().into()], LaunchConfig::d1(64, 8))
            .expect("runs");
        assert_eq!(out.output.as_f32(), reference_jacobi3pt(&input).as_slice());
        assert!(out.stats.local_accesses > 0);
        assert!(out.stats.barriers > 0);
    }
}

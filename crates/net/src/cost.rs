//! The α–β(–γ) network cost model (§5.2 "Analytical Model").
//!
//! "The cost of sending a message of size L is T(L) = α + βL, where both α,
//! the latency of a message transmission, and β, the transfer time per
//! word, are constant." We add γ, the per-element local reduction cost,
//! because the paper notes that sparse summation compute matters for the
//! practical choice of δ (§5.1) and assumes "equally distributed optimal
//! computation among the nodes" for its lower bounds (§5.3.3).

/// Cost model parameters, in seconds (per message / per byte / per element).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Latency per message transmission (the paper's α).
    pub alpha: f64,
    /// Transfer time per *byte* (the paper's β is per word; we account in
    /// bytes so that sparse pairs and dense words are priced by their true
    /// encoded sizes, subsuming the paper's βs/βd distinction).
    pub beta: f64,
    /// Local reduction time per element operation (γ).
    pub gamma: f64,
    /// Fraction of α charged to the sender for a *non-blocking* send; the
    /// paper mitigates the (P−1)α split-phase latency "by using
    /// non-blocking send and receive calls" (§5.3.2).
    pub isend_alpha_fraction: f64,
}

impl CostModel {
    /// Cray Aries / Dragonfly class network (Piz Daint): ~1.5 µs latency,
    /// ~10 GB/s effective point-to-point bandwidth.
    pub fn aries() -> Self {
        CostModel {
            alpha: 1.5e-6,
            beta: 1.0e-10,
            gamma: 1.0e-9,
            isend_alpha_fraction: 0.1,
        }
    }

    /// InfiniBand FDR class network (Greina IB): ~2.5 µs, ~6 GB/s.
    pub fn infiniband() -> Self {
        CostModel {
            alpha: 2.5e-6,
            beta: 1.7e-10,
            gamma: 1.0e-9,
            isend_alpha_fraction: 0.1,
        }
    }

    /// Gigabit Ethernet (Greina GigE / "standard cloud deployment"):
    /// ~50 µs latency, ~117 MB/s effective bandwidth.
    pub fn gige() -> Self {
        CostModel {
            alpha: 5.0e-5,
            beta: 8.5e-9,
            gamma: 1.0e-9,
            isend_alpha_fraction: 0.1,
        }
    }

    /// Kernel loopback TCP (the `ReactorTransport` test/bench deployment):
    /// ~15 µs per message through the full socket stack, ~5 GB/s
    /// effective single-stream bandwidth. This is the default *planning
    /// hint* the adaptive selector uses for loopback TCP clusters — the
    /// clock on a real transport is wall time, not this model.
    pub fn loopback_tcp() -> Self {
        CostModel {
            alpha: 1.5e-5,
            beta: 2.0e-10,
            gamma: 1.0e-9,
            isend_alpha_fraction: 0.1,
        }
    }

    /// Intra-node link (shared memory / kernel loopback between ranks on
    /// one host): ~0.4 µs per message, ~25 GB/s effective bandwidth.
    pub fn intra_node() -> Self {
        CostModel {
            alpha: 4.0e-7,
            beta: 4.0e-11,
            gamma: 1.0e-9,
            isend_alpha_fraction: 0.1,
        }
    }

    /// Free network: correctness tests that should not depend on timing.
    pub fn zero() -> Self {
        CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        }
    }

    /// Resolves a preset by name (`"aries"`, `"infiniband"`, `"gige"`,
    /// `"loopback_tcp"`/`"loopback"`, `"intra_node"`/`"intra"`, `"zero"`).
    pub fn named(name: &str) -> Option<CostModel> {
        match name.trim().to_ascii_lowercase().as_str() {
            "aries" => Some(CostModel::aries()),
            "infiniband" | "ib" => Some(CostModel::infiniband()),
            "gige" | "ethernet" => Some(CostModel::gige()),
            "loopback_tcp" | "loopback" => Some(CostModel::loopback_tcp()),
            "intra_node" | "intra" => Some(CostModel::intra_node()),
            "zero" => Some(CostModel::zero()),
            _ => None,
        }
    }

    /// Parses a model spec: a preset name ([`CostModel::named`]) or the
    /// explicit form `"alpha,beta,gamma[,isend_alpha_fraction]"` in
    /// seconds (per message / per byte / per element), e.g.
    /// `"2.3e-6,1.4e-10,1e-9"` measured off a real link.
    pub fn parse(spec: &str) -> Result<CostModel, String> {
        if let Some(preset) = CostModel::named(spec) {
            return Ok(preset);
        }
        let parts: Vec<&str> = spec.split(',').map(str::trim).collect();
        if parts.len() != 3 && parts.len() != 4 {
            return Err(format!(
                "cost model {spec:?}: expected a preset name or \"alpha,beta,gamma[,isend_fraction]\""
            ));
        }
        let num = |s: &str| -> Result<f64, String> {
            let v: f64 = s
                .parse()
                .map_err(|_| format!("cost model {spec:?}: {s:?} is not a number"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "cost model {spec:?}: {s:?} must be finite and non-negative"
                ));
            }
            Ok(v)
        };
        Ok(CostModel {
            alpha: num(parts[0])?,
            beta: num(parts[1])?,
            gamma: num(parts[2])?,
            isend_alpha_fraction: if parts.len() == 4 {
                num(parts[3])?
            } else {
                0.1
            },
        })
    }

    /// Reads the `SPARCML_COST_MODEL` override (a [`CostModel::parse`]
    /// spec) — how a multi-machine run feeds real link parameters to the
    /// adaptive selector without recompiling. `Ok(None)` when unset;
    /// errors loudly on a malformed value instead of silently mis-pricing
    /// every schedule.
    pub fn from_env() -> Result<Option<CostModel>, crate::error::CommError> {
        match std::env::var(ENV_COST_MODEL) {
            Ok(spec) => CostModel::parse(&spec)
                .map(Some)
                .map_err(|e| crate::error::CommError::Protocol(format!("{ENV_COST_MODEL}: {e}"))),
            Err(_) => Ok(None),
        }
    }

    /// [`CostModel::from_env`] falling back to `default` when the variable
    /// is unset. Malformed values still error.
    pub fn from_env_or(default: CostModel) -> Result<CostModel, crate::error::CommError> {
        Ok(CostModel::from_env()?.unwrap_or(default))
    }

    /// Time to move one message of `bytes` bytes: `α + β·bytes`.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// Local reduction time for `elements` element operations.
    #[inline]
    pub fn compute_time(&self, elements: usize) -> f64 {
        self.gamma * elements as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::aries()
    }
}

/// Environment variable overriding the cost model a launched worker
/// plans with ([`CostModel::from_env`]); a [`CostModel::parse`] spec.
pub const ENV_COST_MODEL: &str = "SPARCML_COST_MODEL";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_affine() {
        let m = CostModel {
            alpha: 1.0,
            beta: 2.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        assert_eq!(m.transfer_time(0), 1.0);
        assert_eq!(m.transfer_time(10), 21.0);
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let a = CostModel::aries();
        let ib = CostModel::infiniband();
        let ge = CostModel::gige();
        let l = 1 << 20;
        assert!(a.transfer_time(l) < ib.transfer_time(l));
        assert!(ib.transfer_time(l) < ge.transfer_time(l));
    }

    #[test]
    fn zero_model_is_free() {
        let z = CostModel::zero();
        assert_eq!(z.transfer_time(1 << 30), 0.0);
        assert_eq!(z.compute_time(1 << 30), 0.0);
    }

    #[test]
    fn parse_accepts_presets_and_explicit_specs() {
        assert_eq!(CostModel::parse("aries").unwrap(), CostModel::aries());
        assert_eq!(CostModel::parse(" GigE ").unwrap(), CostModel::gige());
        let m = CostModel::parse("1e-6, 2e-10, 3e-9").unwrap();
        assert_eq!(m.alpha, 1e-6);
        assert_eq!(m.beta, 2e-10);
        assert_eq!(m.gamma, 3e-9);
        assert_eq!(m.isend_alpha_fraction, 0.1);
        let m = CostModel::parse("1,2,3,0.5").unwrap();
        assert_eq!(m.isend_alpha_fraction, 0.5);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CostModel::parse("fast").is_err());
        assert!(CostModel::parse("1,2").is_err());
        assert!(CostModel::parse("1,x,3").is_err());
        assert!(CostModel::parse("1,-2,3").is_err());
        assert!(CostModel::parse("inf,0,0").is_err());
    }
}

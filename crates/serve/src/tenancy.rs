//! Multi-tenancy: bounded per-tenant queues, weighted fair dispatch, and
//! admission control.
//!
//! Fairness is deficit-weighted round-robin (DRR): each tenant carries a
//! deficit counter topped up by its weight every round; dispatching one
//! request costs one unit. A tenant that floods its queue only overflows
//! *its own* bounded queue (typed [`QueueFull`](crate::ServeError::QueueFull)
//! rejections) and can never pull more than its weighted share of dispatch
//! slots while other tenants have work queued — the starvation bound the
//! fairness suite asserts.

use std::collections::VecDeque;

use crate::service::Request;
use crate::ServeError;

/// Static configuration of one tenant.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Tenant name (request routing key).
    pub name: String,
    /// DRR weight: relative share of dispatch slots under contention
    /// (at least 1: [`TenantQueues::new`] raises 0).
    pub weight: u32,
    /// Bounded queue capacity; arrivals beyond it are shed (at least 1:
    /// [`TenantQueues::new`] raises 0).
    pub queue_cap: usize,
}

impl TenantConfig {
    /// A tenant with the given name, weight 1, and a queue of 64.
    pub fn new(name: &str) -> TenantConfig {
        TenantConfig {
            name: name.to_string(),
            weight: 1,
            queue_cap: 64,
        }
    }

    /// Sets the DRR weight.
    pub fn weight(mut self, w: u32) -> TenantConfig {
        self.weight = w;
        self
    }

    /// Sets the bounded queue capacity.
    pub fn queue_cap(mut self, cap: usize) -> TenantConfig {
        self.queue_cap = cap;
        self
    }
}

/// Global admission limits.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum requests admitted but not yet completed (queued + forming
    /// + in flight) before arrivals are shed with `Overloaded`.
    pub max_outstanding: usize,
    /// Outstanding-request level at which the service enters *brownout*:
    /// batch delays shrink and each tenant is held to its
    /// weight-proportional share of `max_outstanding`, so sustained
    /// overload sheds the lowest-weight work first instead of collapsing
    /// p99 for everyone. `usize::MAX` (the default) disables brownout.
    pub brownout_watermark: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_outstanding: 256,
            brownout_watermark: usize::MAX,
        }
    }
}

/// Per-tenant queue state plus the DRR scheduler.
pub struct TenantQueues {
    configs: Vec<TenantConfig>,
    queues: Vec<VecDeque<Request>>,
    deficits: Vec<u64>,
    /// Longest time any dispatched request of each tenant waited in its
    /// queue (virtual ms) — the starvation metric.
    max_wait_ms: Vec<f64>,
}

impl TenantQueues {
    /// Builds queues for a fixed tenant set (dispatch order = given order).
    /// A weight or queue cap of 0 is stored as 1: a zero-weight tenant
    /// would never earn deficit, and DRR would spin on its queued work.
    pub fn new(configs: &[TenantConfig]) -> TenantQueues {
        TenantQueues {
            queues: configs.iter().map(|_| VecDeque::new()).collect(),
            deficits: vec![0; configs.len()],
            max_wait_ms: vec![0.0; configs.len()],
            configs: configs
                .iter()
                .map(|c| TenantConfig {
                    name: c.name.clone(),
                    weight: c.weight.max(1),
                    queue_cap: c.queue_cap.max(1),
                })
                .collect(),
        }
    }

    /// Index of a tenant by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.configs.iter().position(|c| c.name == name)
    }

    /// The tenant configs, in dispatch order.
    pub fn configs(&self) -> &[TenantConfig] {
        &self.configs
    }

    /// Requests currently queued across all tenants.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Worst queue wait a dispatched request of `tenant` has seen so far.
    pub fn max_wait_ms(&self, tenant: usize) -> f64 {
        self.max_wait_ms.get(tenant).copied().unwrap_or(0.0)
    }

    /// Admits a request into its tenant's bounded queue, or sheds it —
    /// the request rides back with the typed error so the caller can
    /// record the rejection.
    #[allow(clippy::type_complexity)]
    pub fn enqueue(
        &mut self,
        tenant: usize,
        req: Request,
    ) -> Result<(), Box<(Request, ServeError)>> {
        let cap = self.configs[tenant].queue_cap;
        if self.queues[tenant].len() >= cap {
            let e = ServeError::QueueFull {
                tenant: self.configs[tenant].name.clone(),
                cap,
            };
            return Err(Box::new((req, e)));
        }
        self.queues[tenant].push_back(req);
        Ok(())
    }

    /// Requests queued for one model across all tenants.
    pub fn queued_for(&self, model: crate::Model) -> usize {
        self.queues
            .iter()
            .map(|q| q.iter().filter(|r| r.model == model).count())
            .sum()
    }

    /// Earliest arrival among queued requests for one model (drives the
    /// max-delay flush deadline).
    pub fn oldest_arrival_for(&self, model: crate::Model) -> Option<f64> {
        self.queues
            .iter()
            .flat_map(|q| q.iter())
            .filter(|r| r.model == model)
            .map(|r| r.arrival_ms)
            .min_by(f64::total_cmp)
    }

    /// Earliest *finite* deadline among queued requests for one model
    /// (drives deadline-cognizant early flushes).
    pub fn min_deadline_for(&self, model: crate::Model) -> Option<f64> {
        self.queues
            .iter()
            .flat_map(|q| q.iter())
            .filter(|r| r.model == model && r.deadline_ms.is_finite())
            .map(|r| r.deadline_ms)
            .min_by(f64::total_cmp)
    }

    /// Pulls up to `want` of one model's requests by DRR (the batcher
    /// coalesces per model), preferring earlier-configured tenants only
    /// within a round. Within a tenant's FIFO queue the first matching
    /// request is taken; non-matching requests keep their place. Returns
    /// the dispatched requests in dispatch order. `now_ms` stamps the wait
    /// metric.
    pub fn dispatch_model(
        &mut self,
        model: crate::Model,
        want: usize,
        now_ms: f64,
    ) -> Vec<Request> {
        let mut out = Vec::new();
        if want == 0 {
            return out;
        }
        let eligible = |q: &VecDeque<Request>| q.iter().any(|r| r.model == model);
        // Keep rounds going while there is both demand and budget. Each
        // round tops deficits up by the weight; a tenant's queue drains at
        // most `deficit` requests per round.
        while out.len() < want && self.queues.iter().any(&eligible) {
            for t in 0..self.configs.len() {
                if !eligible(&self.queues[t]) {
                    // Tenants with no eligible work don't bank credit
                    // (classic DRR reset).
                    self.deficits[t] = 0;
                    continue;
                }
                self.deficits[t] += u64::from(self.configs[t].weight);
                while self.deficits[t] > 0 && out.len() < want {
                    let Some(pos) = self.queues[t].iter().position(|r| r.model == model) else {
                        break;
                    };
                    let Some(req) = self.queues[t].remove(pos) else {
                        break;
                    };
                    self.deficits[t] -= 1;
                    let waited = (now_ms - req.arrival_ms).max(0.0);
                    if waited > self.max_wait_ms[t] {
                        self.max_wait_ms[t] = waited;
                    }
                    out.push(req);
                }
                if out.len() >= want {
                    break;
                }
            }
        }
        out
    }

    /// Drains every queued request (service shutdown / all devices dead),
    /// in tenant order.
    pub fn drain(&mut self) -> Vec<Request> {
        let mut out = Vec::new();
        for q in &mut self.queues {
            out.extend(q.drain(..));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    fn req(id: u64, tenant: usize) -> Request {
        Request {
            id,
            tenant: tenant.to_string(),
            model: Model::Mlp,
            payload: vec![0.0; Model::Mlp.row_len()],
            arrival_ms: 0.0,
            deadline_ms: f64::INFINITY,
        }
    }

    #[test]
    fn drr_respects_weights_under_contention() {
        let cfgs = [
            TenantConfig::new("0").weight(3).queue_cap(100),
            TenantConfig::new("1").weight(1).queue_cap(100),
        ];
        let mut q = TenantQueues::new(&cfgs);
        for i in 0..40 {
            q.enqueue(0, req(i, 0)).unwrap();
            q.enqueue(1, req(100 + i, 1)).unwrap();
        }
        let got = q.dispatch_model(Model::Mlp, 16, 0.0);
        let t0 = got.iter().filter(|r| r.tenant == "0").count();
        let t1 = got.iter().filter(|r| r.tenant == "1").count();
        assert_eq!(t0 + t1, 16);
        assert_eq!(t0, 12);
        assert_eq!(t1, 4);
    }

    #[test]
    fn bounded_queue_sheds_with_typed_error() {
        let cfgs = [TenantConfig::new("a").queue_cap(2)];
        let mut q = TenantQueues::new(&cfgs);
        q.enqueue(0, req(0, 0)).unwrap();
        q.enqueue(0, req(1, 0)).unwrap();
        let (back, e) = *q.enqueue(0, req(2, 0)).unwrap_err();
        assert_eq!(back.id, 2);
        assert_eq!(e.kind(), "queue_full");
    }

    #[test]
    fn a_zero_weight_tenant_still_dispatches() {
        let literal = |name: &str, queue_cap| TenantConfig {
            name: name.into(),
            weight: 0,
            queue_cap,
        };
        let mut q = TenantQueues::new(&[literal("0", 4), literal("1", 0)]);
        let floors: Vec<(u32, usize)> = q
            .configs()
            .iter()
            .map(|c| (c.weight, c.queue_cap))
            .collect();
        q.enqueue(0, req(0, 0)).unwrap();
        // On a thread, so a dispatch that never returns fails the test
        // instead of hanging it (the spinning thread is not joined).
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(q.dispatch_model(Model::Mlp, 4, 0.0).len());
        });
        let got = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(got, Ok(1), "dispatch of a weight-0 tenant did not return");
        worker.join().expect("dispatch thread");
        assert_eq!(floors, [(1, 4), (1, 1)]);
    }
}

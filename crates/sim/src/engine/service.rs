//! Executor service: owns each executor's in-service work and its
//! node's CPU share, and decides when a tuple starts, how long it runs
//! and when a spout emits.

use super::{BusyWork, Simulation};
use crate::event::{EnvelopeKind, Event};
use crate::logic::ExecutorLogic;
use tstorm_topology::{SharedValues, Value};
use tstorm_trace::{extend_span, SpanSeg, TraceEvent};
use tstorm_types::{ExecutorId, NodeId, SimTime, TupleId};

impl Simulation {
    pub(super) fn is_available(&self, idx: usize) -> bool {
        let e = &self.executors[idx];
        e.alive && e.location.is_some() && e.paused_until.is_none_or(|t| t <= self.clock)
    }

    pub(super) fn on_spout_tick(&mut self, id: ExecutorId) {
        let idx = id.as_usize();
        self.executors[idx].tick_scheduled = false;
        if self.executors[idx].location.is_none() {
            return; // re-ticked on resume
        }
        if let Some(t) = self.executors[idx].paused_until {
            if t > self.clock {
                self.schedule_tick(id, t);
                return;
            }
            self.executors[idx].paused_until = None;
        }
        if self.executors[idx].busy.is_some() {
            return; // ProcessDone will reschedule
        }
        // Drain control messages (acker completions) before emitting.
        if !self.executors[idx].queue.is_empty() {
            self.try_start(id);
            return;
        }
        let halt = self.executors[idx].spout_halt_until;
        if halt > self.clock {
            self.schedule_tick(id, halt);
            return;
        }
        // Fetch a payload: replays first, then the source.
        let payload = if let Some((values, replays, queued_at)) =
            self.executors[idx].replay_queue.pop_front()
        {
            Some((values, replays, Some(queued_at)))
        } else {
            let now = self.clock;
            match &mut self.executors[idx].logic {
                ExecutorLogic::Spout(s) => {
                    s.next_tuple(now).map(|v| (SharedValues::from(v), 0, None))
                }
                _ => None,
            }
        };
        let Some((values, replays, replay_queued_at)) = payload else {
            self.schedule_tick(id, self.clock + self.config.spout_idle_retry);
            return;
        };
        self.executors[idx].last_tick = self.clock;
        let bytes: u64 = values.iter().map(Value::payload_bytes).sum();
        let cost = self.executors[idx].cost;
        let cycles =
            cost.cycles_per_tuple + cost.cycles_per_emit + cost.cycles_per_input_byte * bytes;
        let busy_node = self.occupy_cpu(idx);
        let service = self.service_time(idx, cycles);
        let done_at = self.clock + service;
        self.counters.add_cycles(idx, cycles);
        // The root is created at completion time (see on_process_done).
        let mut outputs = self.outputs_pool.pop().unwrap_or_default();
        outputs.push(values);
        self.executors[idx].busy = Some(BusyWork {
            env: None,
            outputs,
            started_at: self.clock,
            done_at,
            replays,
            replay_queued_at,
            busy_node,
        });
        self.queue.push(done_at, Event::ProcessDone(id));
    }

    pub(super) fn schedule_tick(&mut self, id: ExecutorId, at: SimTime) {
        let idx = id.as_usize();
        if !self.executors[idx].tick_scheduled {
            self.executors[idx].tick_scheduled = true;
            let at = if at > self.clock { at } else { self.clock };
            self.queue.push(at, Event::SpoutTick(id));
        }
    }

    /// Starts servicing the head-of-queue message if the executor is free.
    pub(super) fn try_start(&mut self, id: ExecutorId) {
        let idx = id.as_usize();
        if !self.is_available(idx) || self.executors[idx].busy.is_some() {
            return;
        }
        let Some(env) = self.executors[idx].queue.pop_front() else {
            return;
        };
        {
            let tuple = env.root.map_or(u64::MAX, TupleId::get);
            let depth = self.executors[idx].queue.len() as u64;
            self.emit_trace(|| TraceEvent::QueueLeave {
                tuple,
                executor: idx as u32,
                depth,
            });
            self.emit_trace(|| TraceEvent::ProcessStart {
                tuple,
                executor: idx as u32,
            });
        }
        let mut outputs: Vec<SharedValues> = self.outputs_pool.pop().unwrap_or_default();
        if env.kind == EnvelopeKind::Data {
            if let ExecutorLogic::Bolt(b) = &mut self.executors[idx].logic {
                b.execute(&env.values, &mut |v| outputs.push(SharedValues::from(v)));
            }
        }
        let in_bytes: u64 = env.values.iter().map(Value::payload_bytes).sum();
        let cost = self.executors[idx].cost;
        let cycles = cost.cycles_per_tuple
            + cost.cycles_per_input_byte * in_bytes
            + cost.cycles_per_emit * outputs.len() as u64;
        let busy_node = self.occupy_cpu(idx);
        let service = self.service_time(idx, cycles);
        let done_at = self.clock + service;
        self.counters.add_cycles(idx, cycles);
        self.executors[idx].busy = Some(BusyWork {
            env: Some(env),
            outputs,
            started_at: self.clock,
            done_at,
            replays: 0,
            replay_queued_at: None,
            busy_node,
        });
        self.queue.push(done_at, Event::ProcessDone(id));
    }

    pub(super) fn on_process_done(&mut self, id: ExecutorId) {
        let idx = id.as_usize();
        let Some(work) = self.executors[idx].busy.take() else {
            return; // stale event from a killed worker
        };
        if work.done_at != self.clock {
            // Stale event (the executor was restarted and rescheduled).
            self.executors[idx].busy = Some(work);
            return;
        }
        self.release_cpu(work.busy_node);
        self.executors[idx].completions += 1;

        {
            let tuple = work
                .env
                .as_deref()
                .map_or(u64::MAX, |e| e.root.map_or(u64::MAX, TupleId::get));
            let service_us = (work.done_at - work.started_at).as_micros();
            self.emit_trace(|| TraceEvent::ProcessDone {
                tuple,
                executor: idx as u32,
                service_us,
            });
        }

        match work.env {
            None => {
                self.finish_spout_emission(id, work.outputs, work.replays, work.replay_queued_at);
            }
            Some(env) => {
                let chain = if self.spans.is_some() {
                    // Attribute the wait since delivery and the service
                    // interval to this executor on the node that ran it.
                    let node = NodeId::new(work.busy_node as u32);
                    let queued = self.span_micros(work.started_at, env.delivered_at);
                    let serviced = self.span_micros(work.done_at, work.started_at);
                    let c = extend_span(&env.chain, SpanSeg::queue(id, node, queued));
                    extend_span(&c, SpanSeg::service(id, node, serviced))
                } else {
                    None
                };
                self.finish_message(id, &env, work.outputs, chain);
                self.recycle_envelope(env);
            }
        }

        // Keep the pipeline moving.
        self.try_start(id);
        if self.executors[idx].is_spout {
            // Jitter the pacing interval so spouts drift off a lockstep
            // grid, as OS-scheduled sleeps do on real hardware.
            let base = self.executors[idx].emit_interval.as_micros() as f64;
            let jittered = self.rng.jitter(base, self.config.cpu.service_jitter);
            let next =
                self.executors[idx].last_tick + SimTime::from_micros((jittered as u64).max(1));
            self.schedule_tick(id, next);
        }
        // A service completion is the flush boundary of the batching
        // layer: everything this completion staged (and anything older)
        // is re-examined against the flush policy now.
        if self.config.batch_size > 1 {
            self.flush_at_boundary(idx);
        }
    }

    pub(super) fn on_resume(&mut self, id: ExecutorId) {
        let idx = id.as_usize();
        if let Some(t) = self.executors[idx].paused_until {
            if t <= self.clock {
                self.executors[idx].paused_until = None;
            }
        }
        self.try_start(id);
        if self.executors[idx].is_spout {
            self.schedule_tick(id, self.clock);
        }
    }

    /// Marks the executor's node as running one more thread; returns the
    /// node index holding the charge.
    fn occupy_cpu(&mut self, exec_idx: usize) -> usize {
        let k = self.executors[exec_idx]
            .location
            .map_or(0, |slot| self.cluster.node_of(slot).as_usize());
        self.node_busy[k] += 1;
        k
    }

    pub(super) fn release_cpu(&mut self, node_idx: usize) {
        self.node_busy[node_idx] = self.node_busy[node_idx].saturating_sub(1);
    }

    /// Service time for `cycles` on the executor's node.
    ///
    /// Multi-core processor sharing over *active* threads: an executor
    /// runs at up to one core's speed; when more threads are in service
    /// than the node's capacity covers, everyone slows to the fair share.
    /// Crowded nodes additionally pay a context-switch tax per extra
    /// worker process. Call after [`Simulation::occupy_cpu`] so the
    /// starting thread counts itself.
    fn service_time(&mut self, exec_idx: usize, cycles: u64) -> SimTime {
        let Some(slot) = self.executors[exec_idx].location else {
            return SimTime::from_micros(1);
        };
        let k = self.cluster.node_of(slot).as_usize();
        let cap = self.cluster.nodes()[k].capacity.get();
        let active = f64::from(self.node_busy[k].max(1));
        let tax = (self.config.cpu.context_switch_tax_per_worker
            * f64::from(self.workers_on_node[k].saturating_sub(1)))
        .min(self.config.cpu.max_context_switch_tax);
        let share = (cap * (1.0 - tax) / active)
            .min(self.config.cpu.core_mhz)
            .max(1.0);
        let micros = cycles as f64 / share; // MHz == cycles per microsecond
        let jittered = self.rng.jitter(micros, self.config.cpu.service_jitter);
        SimTime::from_micros((jittered as u64).max(1))
    }
}

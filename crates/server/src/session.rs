//! A served session: a heap-pinned graph plus the live [`ReSolver`] that
//! borrows it, with the dirty-tracking the snapshot machinery needs.
//!
//! `ReSolver<'g>` borrows its graph, and a long-lived session must own
//! both — a self-referential pair Rust's lifetimes cannot express directly.
//! [`Session`] pins the graph behind a `Box` (a stable heap address that
//! moving the `Session` does not disturb) and holds the engine as
//! `ReSolver<'static>`. The `'static` is a private fiction, upheld by three
//! invariants:
//!
//! 1. `graph` is never dropped, replaced, or moved out while the resolver
//!    lives;
//! 2. the resolver field is declared *before* the box, so Rust's
//!    declaration-order drop glue tears the borrower down first;
//! 3. no `'static`-tagged borrow ever escapes this module's API — every
//!    public method reborrows at the caller's (shorter) lifetime.
//!
//! Sessions are also deliberately `!Send` (the resolver's warm state holds
//! `Rc`-shared lazy streams): a session is created on its owning worker
//! thread and never leaves it. Cross-session parallelism comes from the
//! worker pool, not from sharing a session.

use std::time::Instant;

use mcfs::{Edit, EditError, ReSolveRun, ReSolver, Solution, SolveError, Wma};
use mcfs_graph::Graph;
use mcfs_io::{write_checkpoint, OwnedInstance};

/// Why a session could not be created.
#[derive(Debug)]
pub enum OpenError {
    /// The payload parsed but is not a well-formed instance.
    Instance(mcfs::InstanceError),
    /// The checkpoint's solution could not seed a warm resolver.
    Restore(SolveError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Instance(e) => write!(f, "invalid instance: {e:?}"),
            OpenError::Restore(e) => write!(f, "cannot restore checkpoint: {e}"),
        }
    }
}

/// One live session owned by a worker thread.
pub struct Session {
    // Field order matters: `resolver` borrows from `graph` and must drop
    // first (fields drop in declaration order).
    resolver: ReSolver<'static>,
    /// The last completed run, if any.
    last: Option<ReSolveRun>,
    /// Edits applied since the last solve (the last solution no longer
    /// describes the current instance).
    edited_since_solve: bool,
    /// State advanced since the last snapshot (or since open).
    dirty: bool,
    /// Wall-clock of the session's last solve, for operators.
    pub last_solve_wall: Option<std::time::Duration>,
    #[allow(dead_code)] // held only to keep the resolver's borrow alive
    graph: Box<Graph>,
}

impl Session {
    /// Open from a parsed instance; the session starts unsolved (cold).
    pub fn open_instance(owned: OwnedInstance, wma: Wma) -> Result<Session, OpenError> {
        Session::build(owned, wma, None)
    }

    /// Open from a parsed checkpoint; the resolver restores warm from the
    /// recorded solution (`ReSolver::from_solved`).
    pub fn open_checkpoint(
        owned: OwnedInstance,
        solution: Solution,
        wma: Wma,
    ) -> Result<Session, OpenError> {
        Session::build(owned, wma, Some(solution))
    }

    fn build(
        owned: OwnedInstance,
        wma: Wma,
        solution: Option<Solution>,
    ) -> Result<Session, OpenError> {
        let OwnedInstance {
            graph,
            customers,
            facilities,
            k,
        } = owned;
        let graph = Box::new(graph);
        // Label the components now, while OPEN is reading the graph anyway:
        // the first SOLVE's feasibility check would otherwise label them
        // inside its span but outside every phase it reports.
        graph.components();
        // SAFETY: `graph` is heap-allocated; the `Box` (and thus the heap
        // allocation) lives in this `Session` alongside the resolver and is
        // never dropped, overwritten, or moved out before it. Moving the
        // `Session` moves only the box pointer, not the pointee. The
        // fabricated `'static` reference never escapes the module (see the
        // module docs for the full invariant list).
        let graph_ref: &'static Graph = unsafe { &*std::ptr::from_ref::<Graph>(graph.as_ref()) };
        let inst = mcfs::McfsInstance::builder(graph_ref)
            .customers(customers)
            .facilities(facilities)
            .k(k)
            .build()
            .map_err(OpenError::Instance)?;
        let resolver = match &solution {
            Some(sol) => ReSolver::from_solved(&inst, wma, sol).map_err(OpenError::Restore)?,
            None => ReSolver::new(&inst, wma),
        };
        Ok(Session {
            resolver,
            last: solution.map(|sol| ReSolveRun {
                solution: sol,
                solve_stats: mcfs::SolveStats::default(),
                warm: true,
            }),
            edited_since_solve: false,
            dirty: false,
            last_solve_wall: None,
            graph,
        })
    }

    /// Whether the session has advanced past its last snapshot.
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// Whether the session restored warm state from a checkpoint.
    pub fn restored(&self) -> bool {
        self.last.is_some() && self.last_solve_wall.is_none()
    }

    /// Number of customers in the live instance.
    pub fn num_customers(&self) -> usize {
        self.resolver.customers().len()
    }

    /// Number of candidate facilities in the live instance.
    pub fn num_facilities(&self) -> usize {
        self.resolver.facilities().len()
    }

    /// The live selection budget.
    pub fn k(&self) -> usize {
        self.resolver.k()
    }

    /// Apply an edit script atomically.
    pub fn apply(&mut self, edits: &[Edit]) -> Result<(), EditError> {
        self.resolver.apply(edits)?;
        if !edits.is_empty() {
            self.edited_since_solve = true;
            self.dirty = true;
        }
        Ok(())
    }

    /// Solve the current instance (warm where possible) and retain the run.
    pub fn solve(&mut self) -> Result<&ReSolveRun, SolveError> {
        let t0 = Instant::now();
        let run = self.resolver.solve()?;
        self.last_solve_wall = Some(t0.elapsed());
        self.edited_since_solve = false;
        self.dirty = true;
        self.last = Some(run);
        Ok(self.last.as_ref().expect("just stored"))
    }

    /// The last run, if the session has solved (or restored) one whose
    /// solution still describes the current instance.
    pub fn current_run(&self) -> Option<&ReSolveRun> {
        if self.edited_since_solve {
            None
        } else {
            self.last.as_ref()
        }
    }

    /// Serialize the session as an `mcfs-checkpoint v1` block. A checkpoint
    /// pairs the *current* instance with a solution that verifies against
    /// it, so if edits arrived after the last solve (or the session never
    /// solved), this solves first. Marks the session clean.
    pub fn checkpoint_text(&mut self) -> Result<String, SolveError> {
        if self.current_run().is_none() {
            self.solve()?;
        }
        let run = self.last.as_ref().expect("solved above");
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, &self.resolver.instance(), &run.solution)
            .expect("writing to a Vec cannot fail");
        self.dirty = false;
        Ok(String::from_utf8(buf).expect("checkpoint text is ASCII"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs::{Facility, Solver};
    use mcfs_graph::GraphBuilder;
    use mcfs_io::read_checkpoint;

    fn owned() -> OwnedInstance {
        let mut b = GraphBuilder::new(6);
        for i in 0..5 {
            b.add_edge(i, i + 1, 10 + i as u64);
        }
        OwnedInstance {
            graph: b.build(),
            customers: vec![0, 2, 5, 3],
            facilities: vec![
                Facility {
                    node: 1,
                    capacity: 2,
                },
                Facility {
                    node: 4,
                    capacity: 3,
                },
            ],
            k: 2,
        }
    }

    #[test]
    fn session_lifecycle_solve_edit_checkpoint() {
        let mut s = Session::open_instance(owned(), Wma::new()).unwrap();
        assert!(!s.dirty());
        assert!(s.current_run().is_none());
        let obj = s.solve().unwrap().solution.objective;
        assert!(s.dirty());
        assert_eq!(s.current_run().unwrap().solution.objective, obj);

        s.apply(&[Edit::AddCustomer { node: 1 }]).unwrap();
        assert!(s.current_run().is_none(), "edits invalidate the last run");

        // Checkpointing a dirty-edited session solves first; the text
        // must load and verify (read_checkpoint checks the pair).
        let text = s.checkpoint_text().unwrap();
        assert!(!s.dirty());
        let (back, sol) = read_checkpoint(text.as_bytes()).unwrap();
        assert_eq!(back.customers.len(), 5);
        let cold = Wma::new().solve(&back.instance().unwrap()).unwrap();
        assert_eq!(sol.objective, cold.objective);
    }

    #[test]
    fn checkpoint_restores_warm_and_costs_match() {
        let mut s = Session::open_instance(owned(), Wma::new()).unwrap();
        s.solve().unwrap();
        let text = s.checkpoint_text().unwrap();

        let (back, sol) = read_checkpoint(text.as_bytes()).unwrap();
        let mut restored = Session::open_checkpoint(back, sol, Wma::new()).unwrap();
        assert!(restored.restored());
        restored.apply(&[Edit::AddCustomer { node: 3 }]).unwrap();
        let run_obj = restored.solve().unwrap().solution.objective;

        let mut cold = Session::open_instance(owned(), Wma::new()).unwrap();
        cold.apply(&[Edit::AddCustomer { node: 3 }]).unwrap();
        assert_eq!(run_obj, cold.solve().unwrap().solution.objective);
    }

    #[test]
    fn moving_a_session_keeps_the_graph_borrow_valid() {
        // Regression guard for the self-referential layout: move the
        // session into a Vec (heap), then keep solving.
        let mut s = Session::open_instance(owned(), Wma::new()).unwrap();
        let before = s.solve().unwrap().solution.objective;
        let mut held = Box::new(s);
        let s = &mut *held;
        s.apply(&[Edit::AddCustomer { node: 4 }]).unwrap();
        let after = s.solve().unwrap().solution.objective;
        assert!(after >= before, "an added customer cannot lower the cost");
    }
}

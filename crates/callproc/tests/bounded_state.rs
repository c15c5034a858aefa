//! Bounded per-call state: the process registry holds only the calls in
//! flight, however many calls the client has made.
//!
//! Each call runs on its own `cp-thread`, so a node makes a fresh pid
//! per call. `DesClient` ends every thread it spawns with
//! `ProcessRegistry::exit`: at a normal tear-down, at the clean-up of a
//! call whose thread the audit killed mid-call, and when the database
//! refuses a set-up after the thread was spawned. This test drives all
//! three paths for 5,000 call attempts with up to 64 calls in flight and
//! checks the registry's entry count after every step. The count is
//! exact and host-independent; a path that leaves its thread registered
//! (say, one that ends it with `kill`) grows it past the bound within a
//! few steps.

use std::collections::VecDeque;

use wtnc_callproc::{CallOutcome, DesClient, WorkloadConfig};
use wtnc_db::{schema, Database, DbApi};
use wtnc_sim::{ProcessRegistry, SimDuration, SimTime};

/// Call set-ups attempted.
const CALLS: u64 = 5_000;
/// Records per dynamic table: the most calls that can be in flight.
const SLOTS: u32 = 64;
/// Client threads: more than the slots, so a set-up past the 64th call
/// spawns its thread and is then refused by a full table.
const THREADS: usize = 80;
/// Calls torn down (oldest first) after each refused set-up.
const ENDS_PER_REFUSAL: usize = 8;
/// Every this many steps the audit kills a live call's thread.
const KILL_EVERY: u64 = 5;

fn assert_bounded(registry: &ProcessRegistry, client: &DesClient, step: u64, what: &str) {
    let in_flight = client.active_calls();
    assert!(
        registry.len() <= in_flight + 1,
        "step {step}, after {what}: {} registry entries for {in_flight} calls in flight",
        registry.len()
    );
}

#[test]
fn the_registry_holds_only_the_calls_in_flight() {
    let mut db = Database::build(schema::standard_schema_with_slots(SLOTS)).unwrap();
    let mut api = DbApi::new();
    let mut registry = ProcessRegistry::new();
    let workload = WorkloadConfig { threads: THREADS, ..WorkloadConfig::default() };
    let mut client = DesClient::new(workload, 11, true);

    let mut live = VecDeque::new();
    let (mut refused, mut killed, mut dropped, mut ended) = (0u64, 0u64, 0u64, 0u64);
    let mut most_in_flight = 0;
    let mut now = SimTime::from_secs(1);
    for step in 0..CALLS {
        now += SimDuration::from_millis(10);
        match client.start_call(&mut db, &mut api, &mut registry, now) {
            Some((handle, _)) => live.push_back(handle),
            None => {
                refused += 1;
                assert_bounded(&registry, &client, step, "a refused set-up");
                for _ in 0..ENDS_PER_REFUSAL {
                    let Some(oldest) = live.pop_front() else { break };
                    let outcome = client.end_call(&mut db, &mut api, &mut registry, oldest, now);
                    dropped += u64::from(outcome == CallOutcome::Dropped);
                    ended += 1;
                    assert_bounded(&registry, &client, step, "a tear-down");
                }
            }
        }
        most_in_flight = most_in_flight.max(client.active_calls());
        assert_bounded(&registry, &client, step, "a set-up");
        if step % KILL_EVERY == 0 {
            // As the audit would: terminate a live call's thread. Its
            // call is cleaned up at its tear-down.
            let alive = registry.alive().count();
            let victim = registry.alive().nth(step as usize % alive.max(1));
            if let Some(pid) = victim {
                assert!(registry.kill(pid, now));
                killed += 1;
            }
            assert_bounded(&registry, &client, step, "a kill");
        }
        api.events_mut().drain().for_each(drop);
    }
    while let Some(handle) = live.pop_front() {
        client.end_call(&mut db, &mut api, &mut registry, handle, now);
        assert_bounded(&registry, &client, CALLS, "the final tear-down");
    }

    println!(
        "refused {refused}, killed {killed}, ended {ended} ({dropped} dropped), \
         most in flight {most_in_flight}"
    );
    assert_eq!(most_in_flight, SLOTS as usize, "the table fills");
    assert!(refused > 100, "set-ups refused after the spawn: {refused}");
    assert!(killed > 100 && dropped > 100, "killed {killed}, dropped {dropped}");
    assert_eq!(client.stats().calls_refused, refused, "every refusal is a full table");
    assert!(registry.is_empty(), "{} entries left after every call ended", registry.len());
}

// Package chaos is the deterministic fault-injection harness for the
// solve pipeline. It implements core.Injector with a seeded, named-site
// rule table: tests (and the fuzz target) build an Injector that fires
// specific faults — induced panics, forced halo misreads, dropped
// repair updates, worker stalls, lost or duplicated halo-exchange
// messages, shard crashes — at exact or pseudo-random visits of the
// sites the solvers consult via core.SolveOptions.Fault.
//
// Everything is reproducible from the construction parameters: the same
// rules and seed produce the same fire schedule on a sequential solve,
// and per-site atomic visit counters keep concurrent solves
// well-defined (each site visit gets exactly one verdict, though the
// assignment of visits to goroutines follows the scheduler).
//
// # Site registry
//
// Every instrumented site is registered with core.RegisterFaultSite at
// package init, so core.FaultSites() is the authoritative machine-
// readable list and TestEveryRegisteredSiteIsReachable keeps this table
// honest. The sites, by subsystem:
//
//	pgreedy/worker-stall     tile-parallel solver; per tile: worker sleeps inside Inject
//	pgreedy/worker-panic     tile-parallel solver; per tile task and repair batch: induced panic, contained to a sequential fallback
//	pgreedy/halo-read        tile-parallel solver; per speculative placement: placement goes blind to cross-tile neighbors
//	pgreedy/repair-drop      tile-parallel solver; per repaired loser: the recolor is dropped for the next fixpoint round to catch
//	service/enqueue-drop     solve service; per admission: the job is shed between admission and the scheduler
//	service/worker-panic     solve service; per job run: induced panic, contained to a typed job error, or a worker stall
//	resultcache/get-corrupt  result cache; per persistence-tier read: the payload is treated as checksum-failed
//	distsolve/msg-drop       distributed solver transport; per send: the message is silently lost
//	distsolve/msg-dup        distributed solver transport; per send: the message is delivered twice
//	distsolve/msg-delay      distributed solver transport; per send: delivery is deferred and reordered
//	distsolve/shard-crash    distributed solver coordinator; per live original node per round: the node dies and its shard is re-homed
//
// The package deliberately lives behind the nil-cost core.Injector hook:
// production binaries never import it, and a nil injector costs one
// pointer comparison per site. See DESIGN.md §11 for the failure model
// the harness exercises and DESIGN.md §16 for the distributed solver's
// recovery ladder.
package chaos

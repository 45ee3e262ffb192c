// Accomplice propagation (reproduction note, see DESIGN.md §5 and the
// Fig. 11 entry in EXPERIMENTS.md).
//
// The paper claims its methods "can detect colluders even when they
// compromise pretrusted high-reputed nodes" (Fig. 11: compromised
// pretrusted nodes n1/n2 end with reputation 0). A compromised pretrusted
// node, however, cannot satisfy the C2 complement condition: it serves
// authentic files, everyone else rates it positively, so b ≈ 1 for any
// pair it appears in. The pairwise predicate alone therefore never flags
// it — detection of such nodes requires using the verdicts already made.
//
// This pass implements that as a fixpoint: once a node d is flagged, any
// node k in a *mutual frequent mostly-positive* rating relationship with d
// (N_(d,k) >= T_N with a >= T_a, and symmetrically N_(k,d) >= T_N with
// a >= T_a) is flagged as d's accomplice, and propagation continues from
// k. Mutual high-frequency positive rating with a confirmed colluder is
// precisely the collusion signature (C3 + C4) minus the C2 evidence the
// compromised node's good service erases. Normal client->server rating
// edges are one-directional in the paper's model, so honest relationships
// cannot satisfy the mutual-frequency requirement.
//
// The fixpoint runs as an iterated frontier exchange over an
// EpochSnapshot (DESIGN.md §15.2), so one matrix and S shard matrices
// take the same code path. A pair's two directions may live in two shard
// matrices (cell(d, k) in owner(d)'s row d, cell(k, d) in owner(k)'s row
// k):
//
//   round r: every frontier node d is scanned against its OWNER matrix's
//   row d; a candidate k passes when both directions are frequent and
//   mostly positive (C3 + C4 in both matrices); newly flagged nodes form
//   round r+1's frontier. Rounds repeat until no new node is flagged.
//
// The flagged set is the closure of the seed set under the symmetric
// mutual-boosting relation, independent of traversal order and of how
// rows are spread over shards; canonicalize() erases ordering
// differences, so the report is byte-identical at every shard count.
// Cost: each scanned candidate cell charges a scan and a check, and one
// more of each for the reverse cell. Two frontier nodes of the same round
// that find each other are charged from both ends (neither knows the pair
// yet); a pair found in an earlier round is skipped at no charge.
//
// Each round's frontier is grouped by owner shard and the groups run as
// one task each through snapshot.executor (serial when null); candidate
// lists merge in shard-index order, so the evidence stream is
// deterministic even before canonicalization.
#pragma once

#include <cstdint>

#include "core/config.h"
#include "core/evidence.h"
#include "detect/snapshot.h"

namespace p2prep::detect {

/// Extends `report` in place with accomplice pairs reachable from its
/// currently flagged nodes (pairs and ring members), charging the scans
/// and checks to report.cost. Returns the number of exchange rounds run
/// until the fixpoint (0 when the flag is off or nothing was seeded).
/// Canonicalizes the report.
std::uint32_t propagate_accomplices(const EpochSnapshot& snapshot,
                                    const core::DetectorConfig& config,
                                    core::DetectionReport& report);

}  // namespace p2prep::detect

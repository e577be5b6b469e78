package repro.bench

import repro.lake.LakeGen
import repro.lake.LakeGen.LakeSpec

/** Shared benchmark configuration: the mini-corpora standing in for the
  * paper's OPEN / SWDC / LWDC (DESIGN.md §4), the threshold grids of the
  * evaluation section, and the embedder distance calibration.
  *
  * '''τ calibration.''' The paper specifies τ as 2%–8% of the maximum
  * distance 2 because fastText places misspellings within a few percent of
  * the max distance. Our hashing embedder (DESIGN.md §2.4) places
  * misspelled variants at ~0.5–1.0 (case/abbreviation/reorder variants at
  * ~0), so the paper's relative grid maps through a measured scale factor:
  * `τ_abs = pct · 2 · TauScale`. The sweep semantics are preserved — 2% is
  * tight (few matches), 8% is loose (most dirty variants match).
  */
object BenchConfig {

  /** τ scale for the '''efficiency''' tables (VI, VII): the paper's
    * literal percentages. At τ = 2–8% of max distance, matches are the
    * canonically-equal representation variants (deterministic styles embed
    * at distance 0), which keeps joinability non-trivial while preserving
    * the geometry that the hierarchical grid exploits — the paper's
    * operating regime. The '''effectiveness''' table (IV) instead tunes a
    * semantic τ grid (0.4–0.85) matched to the hashing embedder's
    * misspelling distance scale (DESIGN.md §4): fastText puts misspellings
    * within a few % of max distance, our embedder puts them at 25–50%.
    */
  val TauScale: Double = 1.0

  /** τ grid of Tables VI/VII: the paper's 2%..8% of max distance 2. */
  val TauPcts: Seq[Double] = Seq(0.02, 0.04, 0.06, 0.08)
  def tauAbs(pct: Double): Double = pct * 2.0 * TauScale
  val DefaultTauPct: Double = 0.06

  /** T grid of Table VII (fractions of |Q|) and the default. */
  val TFracs: Seq[Double] = Seq(0.2, 0.4, 0.6, 0.8)
  val DefaultTFrac: Double = 0.6

  /** Queries per efficiency experiment (paper: 100; scaled down). */
  val NumQueries: Int = 10
  /** Queries per effectiveness experiment (paper: 50; scaled down). */
  val NumEffQueries: Int = 20

  /** Ground-truth joinability threshold (clean-entity overlap fraction). */
  val GroundTruthG: Double = 0.5

  // ---------------------------------------------------------------------
  // Efficiency corpora (Tables VI, VII) — LakeGen mini stand-ins
  // ---------------------------------------------------------------------

  val openMini: LakeSpec = LakeGen.openMiniSpec()
  val swdcMini: LakeSpec = LakeGen.swdcMiniSpec()
  val lwdcMini: LakeSpec = LakeGen.lwdcMiniSpec()

  /** Index parameters tuned per corpus via the Table VI sweep, as the
    * paper tunes (their optima: |P|=5, m=6 on OPEN; |P|=3, m=4 on SWDC).
    * At mini scale the blocking:verification balance shifts toward
    * shallower grids on the high-dimensional OPEN corpus (m=2); SWDC's
    * optimum matches the paper's m=4.
    */
  val OpenPivots = 5; val OpenLevels = 2
  val SwdcPivots = 3; val SwdcLevels = 4

  /** Out-of-core partition count for LWDC (paper: 10 JSD partitions). */
  val LwdcPartitions = 10

  // ---------------------------------------------------------------------
  // Effectiveness corpora (Table IV) — smaller so the quadratic
  // fuzzy-join baseline stays tractable
  // ---------------------------------------------------------------------

  val openEff: LakeSpec = LakeSpec(
    dim = 100, sharedDomains = 12, colsPerShared = 5, distractors = 60,
    poolSize = 50, colSizeMin = 25, colSizeMax = 40, noise = 0.8, seed = 606L)

  val swdcEff: LakeSpec = LakeSpec(
    dim = 50, sharedDomains = 30, colsPerShared = 5, distractors = 350,
    poolSize = 16, colSizeMin = 8, colSizeMax = 14, noise = 0.8, seed = 707L)
}

package repro.core

import java.nio.file.Files
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.partition.OutOfCore

/** Property: an index spilled in [[IndexFormat]] and loaded back has the
  * same pivots, grid and filter pivots alike, the same flat arrays, grid
  * leaves, filter boxes and build time, and answers every query
  * as the original does in both verify modes. Lakes come from
  * [[PexesoPropertySpec]]'s generator (m ∈ 1..6, |P| ∈ 1..5), with extra
  * weight on a single-column lake and on lakes of fewer distinct vectors
  * than |P|, which get fewer pivots than asked for.
  */
class IndexFormatPropertySpec extends AnyFunSuite {
  import PexesoPropertySpec.genCase

  private val genRoundTrip: Gen[PexesoPropertySpec.Case] = Gen.frequency(
    4 -> genCase,
    1 -> genCase.map(_.copy(numCols = 1)),
    1 -> genCase.map(_.copy(numCols = 1, colSize = 2, numPivots = 5)),
  )

  private def sameArrays(a: PexesoIndex, b: PexesoIndex): Boolean = {
    import java.util.Arrays.{equals => same}
    val (x, y) = (a.inverted, b.inverted)
    a.pivots.pivots.length == b.pivots.pivots.length &&
    a.pivots.pivots.indices.forall(i => same(a.pivots.pivots(i), b.pivots.pivots(i))) &&
    x.dim == y.dim && x.numPivots == y.numPivots && x.levels == y.levels && x.extent == y.extent &&
    same(x.colIds, y.colIds) && same(x.cellCoords, y.cellCoords) && same(x.cellSeg, y.cellSeg) &&
    same(x.segCol, y.segCol) && same(x.segStart, y.segStart) &&
    same(x.mapped, y.mapped) && same(x.vectors, y.vectors) &&
    x.numFilters == y.numFilters && a.pivots.numPivots == a.numPivots + a.inverted.numFilters &&
    same(x.boxLo, y.boxLo) && same(x.boxHi, y.boxHi) &&
    a.buildNanos == b.buildNanos
  }

  test("an index spilled and loaded back is the same index") {
    val dir = Files.createTempDirectory("pexeso-format")
    val path = dir.resolve("index.bin")
    try {
      val prop = Prop.forAllNoShrink(genRoundTrip) { c =>
        val (cols, query) = c.instance
        val index = PexesoIndex.build(cols, c.numPivots, c.levels)
        IndexFormat.write(index, path)
        val back = OutOfCore.load(OutOfCore.SpilledIndex(0, path, cols.size))
        val sameAnswers = Seq(VerifyMode.Pexeso, VerifyMode.PexesoH).forall { mode =>
          back.search(query, c.tau, c.tFrac, mode).joinable ==
            index.search(query, c.tau, c.tFrac, mode).joinable
        }
        Prop(sameArrays(index, back)) :| s"$c: arrays differ" &&
        Prop(sameAnswers) :| s"$c: answers differ"
      }
      val params = Test.Parameters.default
        .withMinSuccessfulTests(300)
        .withInitialSeed(Seed(20210420L))
      val result = Test.check(params, prop)
      assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
    } finally {
      Files.deleteIfExists(path); Files.deleteIfExists(dir)
    }
  }
}

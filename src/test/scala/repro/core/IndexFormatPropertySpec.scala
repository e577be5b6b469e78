package repro.core

import java.nio.file.Files
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.partition.OutOfCore

/** Property: an index spilled in [[IndexFormat]] and loaded back has the
  * same pivots, grid and filter pivots alike, the same flat arrays, grid
  * leaves, filter boxes, posting codes and build time, and answers every query
  * as the original does in both verify modes. Lakes come from
  * [[PexesoPropertySpec]]'s generator (m ∈ 1..6, |P| ∈ 1..5), with extra
  * weight on a single-column lake, on lakes of fewer distinct vectors
  * than |P|, which get fewer pivots than asked for, and on an odd count of
  * 16-bit codes, which the padding before the vectors must round up.
  */
class IndexFormatPropertySpec extends AnyFunSuite {
  import PexesoPropertySpec.genCase

  private val genRoundTrip: Gen[PexesoPropertySpec.Case] = Gen.frequency(
    4 -> genCase,
    1 -> genCase.map(_.copy(numCols = 1)),
    1 -> genCase.map(_.copy(numCols = 1, colSize = 2, numPivots = 5)),
    // odd postings and odd |P|: an odd count of 16-bit codes before the padding
    2 -> genCase.map(c => c.copy(numCols = c.numCols | 1, colSize = c.colSize | 1, numPivots = c.numPivots | 1)),
  )

  private def sameArrays(a: PexesoIndex, b: PexesoIndex): Boolean = {
    import java.util.Arrays.{equals => same}
    val (x, y) = (a.inverted, b.inverted)
    a.pivots.pivots.length == b.pivots.pivots.length &&
    a.pivots.pivots.indices.forall(i => same(a.pivots.pivots(i), b.pivots.pivots(i))) &&
    x.dim == y.dim && x.numPivots == y.numPivots && x.levels == y.levels && x.extent == y.extent &&
    same(x.colIds, y.colIds) && same(x.cellCoords, y.cellCoords) && same(x.cellSeg, y.cellSeg) &&
    same(x.segCol, y.segCol) && same(x.segStart, y.segStart) &&
    same(x.codes, y.codes) && same(x.vectors, y.vectors) &&
    x.numFilters == y.numFilters && a.pivots.numPivots == a.numPivots + a.inverted.numFilters &&
    same(x.boxLo, y.boxLo) && same(x.boxHi, y.boxHi) &&
    a.buildNanos == b.buildNanos
  }

  test("an index spilled and loaded back is the same index") {
    val dir = Files.createTempDirectory("pexeso-format")
    val path = dir.resolve("index.bin")
    // indexes whose 2-byte entries, 2·cells·|P_f| + postings·|P|, are odd in count
    var oddCodes = 0
    try {
      val prop = Prop.forAllNoShrink(genRoundTrip) { c =>
        val (cols, query) = c.instance
        val index = PexesoIndex.build(cols, c.numPivots, c.levels)
        if ((2 * index.inverted.boxLo.length + index.inverted.codes.length) % 2 == 1) oddCodes += 1
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
      assert(oddCodes >= 30, s"only $oddCodes indexes have an odd count of 16-bit codes")
    } finally {
      Files.deleteIfExists(path); Files.deleteIfExists(dir)
    }
  }
}

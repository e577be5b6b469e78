package repro.core

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.partition.OutOfCore

/** A search rebuilt from the public layer calls — pivot mapping, an `HG_Q`
  * filled by `insert`, `Block.run` with quick browsing, `Verify.pexeso` —
  * as `joinbench/trace` rebuilds each search it times, must be the search
  * `PexesoIndex.search` runs, on a built index and on one loaded back.
  */
class LayerCallsSpec extends AnyFunSuite {

  test("a search rebuilt from its layer calls equals PexesoIndex.search, in memory and after a load") {
    val rng = new Random(110)
    val cols = TestData.clusteredColumns(rng, 16, 12, 8, nClusters = 4, jitter = 0.12)
    val queries = Seq.fill(4)(TestData.clusteredQuery(rng, cols.map(_.vectors(0)), 8, 0.12))
    val (tau, tFrac) = (0.4, 0.5)
    val dir = Files.createTempDirectory("pexeso-layers")
    try {
      val built = PexesoIndex.build(cols, 3, 3)
      val loaded = OutOfCore.load(OutOfCore.buildAndSpill(Map(0 -> cols), 3, 3, dir).head)
      var quickPairs = 0
      for ((index, where) <- Seq(built -> "in memory", loaded -> "loaded"); (q, i) <- queries.zipWithIndex) {
        val what = s"query $i $where"
        val qm = index.pivots.mapAll(q)
        val hgQ = new HierarchicalGrid(index.numPivots, index.levels, index.grid.extent)
        qm.indices.foreach(v => hgQ.insert(qm(v), v))
        val block = Block.run(hgQ, index.grid, qm, tau, quickBrowsing = true)
        val (joinable, stats) = Verify.pexeso(block, index.inverted, qm, q, tau, Verify.absThreshold(tFrac, q.length))

        val want = index.search(q, tau, tFrac)
        assert(joinable == want.joinable, what)
        assert(stats.distanceComputations == want.distanceComputations, what)
        assert(block.candidates.length == want.candidatePairs && block.matching.length == want.matchingPairs, what)

        // the cell a key names holds exactly the postings in that leaf: a
        // posting's codes are those of its vector's image on the grid
        // pivots, and their top m bits are the key
        def inLeaf(p: Int, key: Seq[Int]): Boolean = {
          val (np, dim) = (index.numPivots, index.inverted.dim)
          val image = index.pivots.map(index.inverted.vectors.slice(p * dim, (p + 1) * dim)).take(np)
          val codes = (0 until np).map(i => index.inverted.codes(p * np + i).toInt)
          codes == image.map(GridGeometry.code(_, index.grid.codeWidth)).toSeq &&
            codes.map(_ >> (GridGeometry.CodeBits - index.levels)) == key &&
            hgQ.coordsAt(image, index.levels).toSeq == key
        }
        hgQ.leafCells.foreach { l =>
          index.grid.leaf(l.key) match {
            case Some(c) =>
              quickPairs += l.payloads.length
              assert(index.grid.key(c) == l.key, what)
              assert(index.inverted.postingsIn(l.key).nonEmpty, what)
            case None => assert(index.inverted.postingsIn(l.key).isEmpty, what)
          }
        }
        block.candidates.foreach { case (_, key) =>
          val postings = index.inverted.postingsIn(key)
          assert(postings.nonEmpty && postings.forall(inLeaf(_, key)), what)
        }
      }
      assert(quickPairs > 0)
      assert(queries.exists(q => built.search(q, tau, tFrac).joinable.nonEmpty))
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }
}

package repro.core

/** A target column from the repository, as a multiset of embedded vectors.
  *
  * This is the unit of search: the joinable table search problem returns
  * the set of columns `S` with `jn(Q, S) ≥ T` (paper Definition 2).
  *
  * @param colId   dense integer id, unique within one lake/partition
  * @param name    human-readable "table.column" label
  * @param vectors the embedded records of the column (unit vectors)
  */
final case class ColumnVectors(
    colId: Int,
    name: String,
    vectors: Array[Array[Double]],
) extends Serializable {
  def size: Int = vectors.length
  require(vectors.nonEmpty, s"column $name has no vectors")
}

/** Result of one joinable-column search, with instrumentation used by the
  * efficiency tables (Table VI: block vs block+verify time; Fig. 7a:
  * number of exact distance computations).
  */
final case class SearchResult(
    joinable: Set[Int],
    blockNanos: Long,
    verifyNanos: Long,
    distanceComputations: Long,
    candidatePairs: Long,
    matchingPairs: Long,
) {
  def totalNanos: Long = blockNanos + verifyNanos
}

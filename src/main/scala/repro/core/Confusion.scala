package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Confusion counts of a matcher's decisions. */
final case class Confusion(tp: Long, fp: Long, tn: Long, fn: Long) {
  def total: Long = tp + fp + tn + fn
  def +(o: Confusion): Confusion = Confusion(tp + o.tp, fp + o.fp, tn + o.tn, fn + o.fn)
}

/** The auditing lens (§3.2.2): single — a pair is legitimate for group g if
  * either record belongs to g; pairwise — legitimate for the unordered group
  * pair {g, g'} if one record belongs to g and the other to g'.
  */
sealed trait Lens
object Lens {
  case object Single extends Lens
  case object Pairwise extends Lens
}

/** Per-group confusion-count aggregation over scored pairs, as DataFrame
  * aggregations (Appendix B semantics: a pair's result is counted for the
  * group(s) of BOTH records).
  *
  * Input schema: `g1 array<string>`, `g2 array<string>`, `label int`,
  * `score double`. Thresholding (`score >= tau` => match) happens here, so
  * that threshold sweeps (Table 7) share a single scored DataFrame.
  */
object ConfusionCounts {

  /** The four outcomes at τ, as counts; a null score is not a match. */
  private def outcomes(tau: Double): Seq[Column] = {
    val pred = coalesce(col("score") >= tau, lit(false))
    val (pos, neg) = (col("label") === 1, col("label") === 0)
    Seq(pred && pos, pred && neg, !pred && neg, !pred && pos).map(count_if)
  }

  /** Each pair's legitimate group keys under a lens, without repeats:
    * single — every group of either record; pairwise — "g|g'" with g <= g'
    * lexicographically for every left-record group g and right-record g'.
    */
  private def keys(lens: Lens): Column = lens match {
    case Lens.Single => array_distinct(concat(col("g1"), col("g2")))
    case Lens.Pairwise => array_distinct(flatten(transform(col("g1"), a =>
      transform(col("g2"), b => concat_ws("|", least(a, b), greatest(a, b))))))
  }

  /** Every τ's overall confusion (the group-independent reference of Eq 1)
    * and per-group confusion under `lens`, in the order of `taus`, from one
    * aggregation that reads `scored` once.
    */
  def sweep(scored: DataFrame, taus: Seq[Double], lens: Lens): Seq[(Confusion, Map[String, Confusion])] =
    counts(scored, taus, keys(lens))

  /** Overall confusion over all pairs (group-independent reference of Eq 1). */
  def overall(scored: DataFrame, tau: Double): Confusion =
    counts(scored, Seq(tau), typedLit(Seq.empty[String])).head._1

  /** [[sweep]] over group keys `keys` (`array<string>`): each pair is exploded
    * once to its keys plus the overall reference's null key, which no group
    * takes, and one `groupBy` sums every τ's outcomes.
    */
  private def counts(scored: DataFrame, taus: Seq[Double], keys: Column): Seq[(Confusion, Map[String, Confusion])] =
    if (taus.isEmpty) Nil else {
      val sums = taus.flatMap(outcomes)
      val allKeys = concat(coalesce(keys, typedLit(Seq.empty[String])), array(lit(null).cast("string")))
      val rows = scored.select(explode(allKeys) as "group", col("score"), col("label"))
        .groupBy("group").agg(sums.head, sums.tail: _*).collect()
      taus.indices.map { i =>
        val byKey = rows.map(r => Option(r.getString(0)) -> Confusion(
          r.getLong(4 * i + 1), r.getLong(4 * i + 2), r.getLong(4 * i + 3), r.getLong(4 * i + 4)))
        (byKey.collectFirst { case (None, c) => c }.getOrElse(Confusion(0, 0, 0, 0)),
         byKey.collect { case (Some(g), c) => g -> c }.toMap)
      }
    }

  /** Per-group confusion under the single lens: one row per level-1 group; a
    * pair contributes once to every group either of its records belongs to.
    */
  def single(scored: DataFrame, tau: Double): Map[String, Confusion] =
    sweep(scored, Seq(tau), Lens.Single).head._2

  /** Per-group-pair confusion under the pairwise lens: key "g|g'" with
    * g <= g' lexicographically; a pair contributes once per unordered
    * combination of a left-record group with a right-record group.
    */
  def pairwise(scored: DataFrame, tau: Double): Map[String, Confusion] =
    sweep(scored, Seq(tau), Lens.Pairwise).head._2

  /** Confusion for a specific subgroup (any level) under the single lens. */
  def forSubgroup(scored: DataFrame, tau: Double, sg: GroupEncoding.Subgroup): Confusion = {
    val member = udf((g: Seq[String]) => sg.contains(g))
    overall(scored.filter(member(col("g1")) || member(col("g2"))), tau)
  }
}

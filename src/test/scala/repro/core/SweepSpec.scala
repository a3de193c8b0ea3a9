package repro.core

import org.apache.spark.storage.StorageLevel

import repro.{Oracle, SparkSpec, TestPairs}
import repro.eval.Tables

/** The one-pass threshold sweep: every τ's overall and per-group confusion
  * from one aggregation, checked against DuckDB, across shuffle partition
  * counts, and for what it leaves of the caller's cache.
  */
class SweepSpec extends SparkSpec {
  import spark.implicits._

  /** Setwise groups over {a, b, c}, empty group arrays included, and scores
    * on a 0.1 grid so that many fall exactly on a threshold.
    */
  private val rows: Seq[(Long, Long, Seq[String], Seq[String], Int, Double)] = {
    val rnd = new scala.util.Random(17)
    def groups() = Seq("a", "b", "c").filter(_ => rnd.nextInt(3) == 0)
    Seq(
      (1L, 2L, Seq("a", "b"), Seq("a", "b"), 1, 0.5), // pairwise key a|b from both a×b and b×a
      (3L, 4L, Seq.empty[String], Seq.empty[String], 0, 0.7), // overall only
      (5L, 6L, Seq("c"), Seq.empty[String], 1, 0.3), // single c, no pairwise key
    ) ++ (0 until 300).map(i =>
      ((10 + i).toLong, (1000 + i).toLong, groups(), groups(), rnd.nextInt(2), rnd.nextInt(11) / 10.0))
  }
  private lazy val scored = TestPairs.scored(spark, rows)
  private val taus = Seq(0.3, 0.5, 0.7, 0.95, 0.0)

  /** DuckDB: per (τ index, key) outcome counts; the overall row has key NULL. */
  private def oracleSql(keySql: String): String =
    s"""WITH p AS (SELECT id1, id2, CAST(label AS INT) AS label, CAST(score AS DOUBLE) AS score FROM pairs),
            t AS (SELECT ti, CAST(tau AS DOUBLE) AS tau FROM taus),
            k AS ($keySql),
            keyed AS (SELECT id1, id2, grp FROM k UNION ALL SELECT id1, id2, NULL AS grp FROM p)
        SELECT t.ti AS ti, keyed.grp AS grp,
          sum(CASE WHEN p.score >= t.tau AND p.label = 1 THEN 1 ELSE 0 END) AS tp,
          sum(CASE WHEN p.score >= t.tau AND p.label = 0 THEN 1 ELSE 0 END) AS fp,
          sum(CASE WHEN p.score <  t.tau AND p.label = 0 THEN 1 ELSE 0 END) AS tn,
          sum(CASE WHEN p.score <  t.tau AND p.label = 1 THEN 1 ELSE 0 END) AS fn
        FROM keyed JOIN p ON keyed.id1 = p.id1 AND keyed.id2 = p.id2 CROSS JOIN t
        GROUP BY t.ti, keyed.grp"""

  private def checkAgainstOracle(lens: Lens, keySql: String): Unit = {
    assert(rows.count(r => taus.contains(r._6)) > 20 && rows.count(r => r._3.isEmpty && r._4.isEmpty) > 1)
    val sparkRes = ConfusionCounts.sweep(scored, taus, lens).zipWithIndex.flatMap { case ((all, groups), ti) =>
      ((Option.empty[String] -> all) +: groups.toSeq.map { case (g, c) => Option(g) -> c })
        .map { case (g, c) => (ti, g, c.tp, c.fp, c.tn, c.fn) }
    }.toDF("ti", "grp", "tp", "fp", "tn", "fn")
    val members = rows.flatMap { case (id1, id2, g1, g2, _, _) =>
      g1.map(g => (id1, id2, 1, g)) ++ g2.map(g => (id1, id2, 2, g))
    }.toDF("id1", "id2", "side", "g")
    Oracle.assertEquivalent(sparkRes, oracleSql(keySql),
      "pairs" -> scored.select("id1", "id2", "label", "score"),
      "members" -> members,
      "taus" -> taus.zipWithIndex.map { case (t, i) => (i, t) }.toDF("ti", "tau"))
  }

  test("oracle: multi-τ single-lens counts and the overall row match DuckDB") {
    checkAgainstOracle(Lens.Single, "SELECT DISTINCT id1, id2, g AS grp FROM members")
  }

  test("oracle: multi-τ pairwise-lens counts and the overall row match DuckDB") {
    checkAgainstOracle(Lens.Pairwise,
      """SELECT DISTINCT a.id1, a.id2, least(a.g, b.g) || '|' || greatest(a.g, b.g) AS grp
         FROM members a JOIN members b
           ON a.id1 = b.id1 AND a.id2 = b.id2 AND a.side = '1' AND b.side = '2'""")
  }

  test("a pair with g1 = g2 = [a, b] counts once for the pairwise key a|b") {
    val m = ConfusionCounts.pairwise(TestPairs.scored(spark, rows.take(1)), 0.5)
    assert(m == Map("a|a" -> Confusion(1, 0, 0, 0), "a|b" -> Confusion(1, 0, 0, 0),
      "b|b" -> Confusion(1, 0, 0, 0)))
  }

  test("no thresholds, no results") {
    assert(ConfusionCounts.sweep(scored, Nil, Lens.Single).isEmpty)
    assert(Audit.sweep(scored, Nil).isEmpty)
  }

  test("Audit.sweep over the Table 7 grid does not depend on the shuffle partition count") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    def audit(partitions: Int) = {
      spark.conf.set(key, partitions.toString)
      Seq(Lens.Single, Lens.Pairwise).map(l => Audit.sweep(scored, Tables.sweepTaus, l, minSupport = 1))
    }
    try {
      val (one, many) = (audit(1), audit(64))
      assert(one.flatten.size == 2 * Tables.sweepTaus.size && one.flatten.forall(_.cells.nonEmpty))
      assert(one == many)
    } finally spark.conf.set(key, before)
  }

  test("a frame the caller cached is still cached after Audit.sweep and Audit.run") {
    val df = TestPairs.scored(spark, rows).cache()
    try {
      df.count()
      Audit.sweep(df, Tables.sweepTaus)
      assert(df.storageLevel != StorageLevel.NONE)
      Audit.run(df, 0.5, Lens.Pairwise)
      assert(df.storageLevel != StorageLevel.NONE)
    } finally df.unpersist()
  }
}

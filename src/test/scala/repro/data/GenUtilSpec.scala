package repro.data

import repro.SparkSpec
import repro.core.EMDataset

/** The pair-uniqueness invariant every generator's dataset is built with. */
class GenUtilSpec extends SparkSpec {

  private def row(id1: Long, id2: Long) =
    GenUtil.PairRow(id1, id2, Seq("x"), Seq("y"), Seq("g"), Seq("g"), 0)

  test("pairsDF rejects a pair that occurs twice") {
    val e = intercept[IllegalArgumentException] {
      GenUtil.pairsDF(spark, Seq("a"), Seq(row(1, 2), row(3, 4), row(1, 2)))
    }
    assert(e.getMessage.contains("(1, 2)"))
  }
  test("pairsDF keeps (id1, id2) and (id2, id1) apart") {
    assert(GenUtil.pairsDF(spark, Seq("a"), Seq(row(1, 2), row(2, 1))).count() == 2)
  }

  test("all 8 generators: each (id1, id2) occurs once across train and test") {
    val datasets: Seq[EMDataset] =
      Seq(Social.facultyMatch(spark), Social.noFlyCompas(spark)) ++ EMBench.all(spark)
    assert(datasets.map(_.name).distinct.size == 8)
    for (ds <- datasets) {
      val pairs = ds.train.union(ds.test).select("id1", "id2")
      val (n, distinct) = (pairs.count(), pairs.distinct().count())
      assert(n > 0 && distinct == n, s"${ds.name}: $n pairs, $distinct distinct")
    }
  }
}

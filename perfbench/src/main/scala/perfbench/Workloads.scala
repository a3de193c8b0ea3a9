package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.data.{EMBench, Social}
import repro.eval.Tables
import repro.matchers.DedupeMatcher
import repro.matchers.neural.Matchers

/** One input of a workload: matchers are fitted on `fit` and score the test
  * split of `eval` (the same dataset, except in `score-large`).
  */
final case class Input(fit: EMDataset, eval: EMDataset)

/** What one (input, matcher) cell produced: its rendered result rows, whether
  * the matcher refused the dataset, and every failed output check.
  */
final case class CellResult(rows: Seq[String], refused: Boolean, problems: Seq[String])

/** A benchmark workload: inputs made from the seed, the matchers run on each
  * input, the cell computed through the program's table functions (untraced
  * run), and the audit layer called on its own over a cached scored frame
  * (traced run). Seed 0 uses the generators' default seeds, so it reproduces
  * the datasets behind the repository's tables.
  */
sealed abstract class Workload(val name: String, matcherNames: Seq[String]) {
  def inputs(spark: SparkSession, seed: Long): Seq[Input]

  /** Fresh matcher instances from the program's registry, in its order. */
  def matchers: Seq[Matcher] = {
    val all = Matchers.all
    require(matcherNames.forall(n => all.exists(_.name == n)), s"unknown matcher in $matcherNames")
    all.filter(m => matcherNames.contains(m.name))
  }

  /** Thresholds each audited cell is evaluated at. */
  def taus: Seq[Double] = Seq(0.5)

  /** The untraced cell: the same public calls the table jobs make. */
  def cell(in: Input, m: Matcher): CellResult

  /** The audit layer over a cached scored frame: its failed checks. */
  def audit(scored: DataFrame, in: Input): Seq[String]
}

object Workload {
  val all: Seq[Workload] = Seq(SocialWorkload, SweepWorkload, ScoreLargeWorkload)

  def byName(n: String): Workload = all.find(_.name == n).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $n (one of ${all.map(_.name).mkString(", ")})"))
}

/** Table 6 path: `Tables.socialTable` on FacultyMatch at τ = 0.5, single lens.
  * Fitting dominates and most of it is per-stage overhead of iterative
  * solvers; the audit is two small jobs per matcher.
  */
object SocialWorkload extends Workload("social",
    Seq("BooleanRuleMatcher", "Dedupe", "NBMatcher", "Ditto")) {
  val (nCn, nDe) = (120, 95)

  def inputs(spark: SparkSession, seed: Long): Seq[Input] = {
    val ds = Social.facultyMatch(spark, nCn, nDe, 42 + seed)
    Seq(Input(ds, ds))
  }

  def cell(in: Input, m: Matcher): CellResult = {
    val rows = Tables.socialTable(in.eval, "cn", "de", Fairness.TPRP, Fairness.PPVP, Seq(m))
    val problems = rows.flatMap { r =>
      Checks.probability(s"${r.matcher} TPR(cn)", r.m1Group) ++
        Checks.probability(s"${r.matcher} TPR(de)", r.m1Ref) ++
        Checks.probability(s"${r.matcher} PPV(cn)", r.m2Group) ++
        Checks.probability(s"${r.matcher} PPV(de)", r.m2Ref)
    }
    val rendered = Tables.renderSocial("FacultyMatch", "TPR", "PPV", "cn", "de", rows)
      .linesIterator.drop(2).toSeq
    CellResult(rendered, rows.isEmpty, problems)
  }

  def audit(scored: DataFrame, in: Input): Seq[String] =
    Checks.confusions(ConfusionCounts.single(scored, 0.5))
}

/** Table 7 path: `Tables.sensitivity` (14 thresholds, TPRP and PPVP) on
  * iTunes-Amazon (setwise genre groups) and DBLP-ACM (multi-valued venue).
  * The audit runs many tiny jobs on small data.
  */
object SweepWorkload extends Workload("sweep", Seq("LinRegMatcher")) {

  def inputs(spark: SparkSession, seed: Long): Seq[Input] =
    Seq(EMBench.iTunesAmazon(spark, 11 + seed), EMBench.dblpAcm(spark, seed = 13 + seed))
      .map(ds => Input(ds, ds))

  override def taus: Seq[Double] = Tables.sweepTaus

  def cell(in: Input, m: Matcher): CellResult = {
    val rows = Tables.sensitivity(in.eval, Seq(m))
    val problems = rows.flatMap { r =>
      Seq("TPRP" -> r.tprpSens, "PPVP" -> r.ppvpSens).collect {
        case (k, v) if !(v >= 0 && v < Double.PositiveInfinity) =>
          s"${r.dataset} ${r.matcher} $k sensitivity $v is not a finite non-negative number"
      }
    }
    val rendered = rows.map(r =>
      f"${r.dataset}%-15s ${r.matcher}%-20s TPRP=${r.tprpSens}%5.1f PPVP=${r.ppvpSens}%5.1f")
    CellResult(rendered, rows.isEmpty, problems)
  }

  def audit(scored: DataFrame, in: Input): Seq[String] = {
    val results = Audit.sweep(scored, taus, measures = Seq(Fairness.TPRP, Fairness.PPVP))
    results.flatMap(Checks.result)
  }
}

/** The AuditDemo path, scaled up: matchers fitted on a small FacultyMatch
  * score the test split of a large one, which is then audited under both
  * lenses with every measure. Data, featurization, encoding, scoring and the
  * pairwise lens's shuffle are row-bound here; fitting is small.
  */
object ScoreLargeWorkload extends Workload("score-large",
    Seq("BooleanRuleMatcher", "NBMatcher", "MCAN")) {
  val (fitCn, fitDe) = (60, 45)
  val (nCn, nDe) = (150, 115)

  def inputs(spark: SparkSession, seed: Long): Seq[Input] =
    Seq(Input(Social.facultyMatch(spark, fitCn, fitDe, 42 + seed),
      Social.facultyMatch(spark, nCn, nDe, 42 + seed)))

  private def auditRows(scored: DataFrame): (Seq[String], Seq[String]) = {
    val results = Seq(Lens.Single, Lens.Pairwise).map(l => Audit.run(scored, 0.5, l))
    val rows = results.flatMap { res =>
      s"== ${res.lens} ==" +: (Fairness.all.map(m => s"${m.abbrev} unfair: ${res.unfairGroups(m).mkString(", ")}") :+
        s"EO unfair: ${res.unfairGroupsEO().mkString(", ")}")
    }
    (rows, results.flatMap(Checks.result))
  }

  def cell(in: Input, m: Matcher): CellResult =
    (try Some(m.fit(in.fit)) catch { case _: MatcherNotScalable => None }) match {
      case None => CellResult(Nil, refused = true, Nil)
      case Some(fitted) =>
        val scored = fitted.scores(in.eval.test).cache()
        try {
          val (rows, problems) = auditRows(scored)
          val overall = ConfusionCounts.overall(scored, 0.5)
          CellResult(s"== ${m.name} ==" +: rows :+ s"overall confusion @0.5: $overall", refused = false, problems)
        } finally scored.unpersist()
    }

  def audit(scored: DataFrame, in: Input): Seq[String] = auditRows(scored)._2
}

/** Output checks shared by the workloads. */
object Checks {
  /** Dedupe's documented refusal rule (§5.1.4): a single free-text attribute,
    * or more pairs than it scales to. At repository scale it refuses exactly
    * FacultyMatch, NoFlyCompas, Shoes and Cameras.
    */
  def dedupeRefuses(ds: EMDataset, pairs: Long): Boolean =
    (ds.attrs.size == 1 && ds.attrs.head.kind == AttrKind.LongText) || pairs > DedupeMaxPairs

  val DedupeMaxPairs = 20000L

  def refusal(m: Matcher, ds: EMDataset, pairs: Long, refused: Boolean): Seq[String] = {
    val expected = m.isInstanceOf[DedupeMatcher] && dedupeRefuses(ds, pairs)
    if (refused == expected) Nil
    else Seq(s"${m.name} on ${ds.name} ($pairs pairs): refused=$refused, expected $expected")
  }

  def probability(what: String, v: Double): Seq[String] =
    if (v.isNaN || (v >= 0 && v <= 1)) Nil else Seq(s"$what = $v is outside [0, 1]")

  /** Every measure of every group: defined exactly where its denominator is
    * non-zero, and then equal to numerator / denominator, within [0, 1].
    */
  def confusions(byGroup: Map[String, Confusion]): Seq[String] =
    byGroup.toSeq.sortBy(_._1).flatMap { case (g, c) =>
      Fairness.all.flatMap { m =>
        val (num, den) = fraction(m, c)
        (m.value(c), den) match {
          case (None, 0L) => Nil
          case (Some(v), d) if d > 0 && math.abs(v - num.toDouble / d) < 1e-12 && v >= 0 && v <= 1 => Nil
          case (v, d) => Seq(s"group $g ${m.abbrev}: value $v with $num/$d")
        }
      }
    }

  /** Numerator and denominator of a measure, from Table 2 of the paper. */
  def fraction(m: Fairness.Measure, c: Confusion): (Long, Long) = m match {
    case Fairness.AP   => (c.tp + c.tn, c.total)
    case Fairness.SP   => (c.tp + c.fp, c.total)
    case Fairness.TPRP => (c.tp, c.tp + c.fn)
    case Fairness.FPRP => (c.fp, c.fp + c.tn)
    case Fairness.FNRP => (c.fn, c.tp + c.fn)
    case Fairness.TNRP => (c.tn, c.fp + c.tn)
    case Fairness.PPVP => (c.tp, c.tp + c.fp)
    case Fairness.NPVP => (c.tn, c.tn + c.fn)
    case Fairness.FDRP => (c.fp, c.tp + c.fp)
    case Fairness.FORP => (c.fn, c.tn + c.fn)
  }

  /** Audit cells: values and disparities within [0, 1]; a measure is
    * undefined for a group exactly when its complement (same denominator) is,
    * and otherwise the two sum to 1.
    */
  def result(r: Audit.Result): Seq[String] = {
    val inRange = r.cells.flatMap { c =>
      Seq("overall" -> c.overall, "group" -> c.groupValue, "sub" -> c.subDisparity, "div" -> c.divDisparity)
        .collect { case (k, Some(v)) if !(v >= 0 && v <= 1) =>
          s"τ=${r.tauMatch} ${r.lens} ${c.group} ${c.measure.abbrev} $k = $v is outside [0, 1]" }
    }
    val complements = Seq(Fairness.TPRP -> Fairness.FNRP, Fairness.FPRP -> Fairness.TNRP,
      Fairness.PPVP -> Fairness.FDRP, Fairness.NPVP -> Fairness.FORP)
    val byGroup = r.cells.groupBy(_.group)
    val paired = for {
      (g, cells) <- byGroup.toSeq.sortBy(_._1)
      value = cells.map(c => c.measure -> c.groupValue).toMap
      (a, b) <- complements if value.contains(a) && value.contains(b)
      bad <- ((value(a), value(b)) match {
        case (None, None) => None
        case (Some(x), Some(y)) if math.abs(x + y - 1) < 1e-9 => None
        case (x, y) => Some(s"τ=${r.tauMatch} ${r.lens} $g: ${a.abbrev}=$x, ${b.abbrev}=$y")
      })
    } yield bad
    inRange ++ paired
  }
}

package perfbench

import java.lang.management.ManagementFactory
import java.security.MessageDigest

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.jobs.JobSession
import repro.matchers.DedupeMatcher
import repro.matchers.neural.NeuralMatcherBase

/** The pipeline benchmark's main program: one fresh JVM per run, one
  * workload, a closed loop of cycles on one driver thread.
  *
  * A cycle makes the workload's inputs from the seed and produces every
  * result row of it. Cycles repeat until `--seconds` have passed; the
  * workloads are sized so that one cold cycle, as a table job runs it in a
  * fresh JVM, already takes that long. With `--trace 0` every cycle is
  * untraced and the end-to-end metrics are printed. With `--trace 1` a
  * traced cycle runs first, then untraced and traced cycles alternate: a
  * traced cycle calls each layer on its own inside a span, and the per-layer
  * metrics are per traced cycle. The tracing overhead compares the warm
  * traced cycles with the untraced ones, which all follow the cold first one.
  *
  * `--setup-only` measures set-up (JVM start until the session has run one
  * trivial job), prints it and exits.
  */
object Main {
  val Layers: Seq[String] = Seq("data", "featurize", "encode", "fit", "score", "audit")
  val FitKinds: Seq[String] = Seq("rule", "nonneural", "dedupe", "neural")

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, setupOnly: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    Args(kv.getOrElse("workload", ""), kv.getOrElse("seed", "0").toLong,
      kv.getOrElse("seconds", "10").toDouble, kv.getOrElse("trace", "0") == "1",
      args.contains("--setup-only"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val spark = JobSession.session(s"perfbench-${args.workload}")
    spark.range(1).count()
    val setupS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
    if (args.setupOnly) {
      println(f"setup_s $setupS%.3f")
      System.out.flush()
      Runtime.getRuntime.halt(0)
    }
    val workload = Workload.byName(args.workload)
    val run = new Run(spark, workload, args.seed)
    val deadline = System.nanoTime() + (args.seconds * 1e9).toLong
    var traceNext = args.trace
    do {
      run.cycle(traceNext)
      traceNext = args.trace && !traceNext
    } while (System.nanoTime() < deadline || (args.trace && !run.canCompareTrace))
    val metrics = if (args.trace) run.layerMetrics() else run.endToEndMetrics(setupS)
    for (p <- run.problems) System.err.println(s"check failed: $p")
    run.rows.foreach(println)
    println(s"digest ${workload.name} seed=${args.seed} ${run.digest}")
    println(Json.result(run.failed == 0, run.attempted, run.failed, metrics))
    spark.stop()
  }

  def force(df: DataFrame): Unit = df.write.format("noop").mode("overwrite").save()

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** CPU time (user + system) of this JVM so far. */
  def cpuSeconds(): Double = {
    val f = scala.io.Source.fromFile("/proc/self/stat").mkString.split("\\) ")(1).split(" ")
    (f(11).toLong + f(12).toLong) / 100.0
  }

  /** CPU time the hypervisor took from all of this machine's CPUs so far. */
  def stealSeconds(): Double = {
    val cpu = scala.io.Source.fromFile("/proc/stat").getLines().next().split("\\s+")
    if (cpu.length > 8) cpu(8).toLong / 100.0 else 0.0
  }

  /** Peak resident set of this JVM (VmHWM), in MB. */
  def rssPeakMb(): Double =
    scala.io.Source.fromFile("/proc/self/status").getLines()
      .collectFirst { case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024 }
      .getOrElse(Double.NaN)

  /** The feature columns of the matcher with the heaviest encoder feature set
    * (MCAN: per-attribute alignment and cosine plus whole-record features).
    */
  def encodeColumns(attrs: Seq[AttrSpec]) = {
    import NeuralMatcherBase._
    perAttr(attrs, "align", alignUdf) ++ perAttr(attrs, "cos", embCosUdf) ++ globalFeatures(attrs)
  }

  def fitLayer(m: Matcher): String = m match {
    case _: DedupeMatcher => "fit.dedupe"
    case _ if m.kind == MatcherKind.RuleBased => "fit.rule"
    case _ if m.kind == MatcherKind.Neural => "fit.neural"
    case _ => "fit.nonneural"
  }
}

object Run {
  /** Pair counts of one input: all pairs and the train split of the fitted
    * dataset, the test split of the scored one.
    */
  final case class Counts(fitPairs: Long, fitTrain: Long, evalTest: Long)
}

/** State of one benchmark run: cycle timings, output checks and the trace. */
final class Run(spark: SparkSession, workload: Workload, seed: Long) {
  import Main._
  import Run.Counts

  private val untracedWalls = mutable.ArrayBuffer.empty[Double]
  private val tracedWalls = mutable.ArrayBuffer.empty[Double]
  private val cellSeconds = mutable.ArrayBuffer.empty[Double]
  private val firstRows = mutable.Map.empty[(Int, String), Seq[String]]
  private val rendered = mutable.ArrayBuffer.empty[String]
  val problems: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty
  var attempted = 0
  var failed = 0
  private var inputs: Seq[Input] = Nil
  /** Refusals and overall confusion totals by (input index, matcher), checked
    * against the pair counts once the timed cycles are over.
    */
  private val overallTotals = mutable.ArrayBuffer.empty[(Int, Matcher, Long)]
  private val refusals = mutable.ArrayBuffer.empty[(Int, Matcher, Boolean)]
  /** Input index of every untraced cell that produced scores. */
  private val scoredCells = mutable.ArrayBuffer.empty[Int]
  private val tracedScored = mutable.ArrayBuffer.empty[Int]
  private lazy val tracer = new Tracer(spark.sparkContext, s"${workload.name}-$seed")

  /** A warm traced cycle and an untraced one exist to compare. */
  def canCompareTrace: Boolean = tracedWalls.size >= 2 && untracedWalls.nonEmpty

  /** Counts one attempted cell, failed when it has any problem. */
  private def record(cellProblems: Seq[String]): Unit = {
    attempted += 1
    if (cellProblems.nonEmpty) { failed += 1; problems ++= cellProblems }
  }

  def cycle(traced: Boolean): Unit = {
    val t0 = System.nanoTime()
    val (cpu0, steal0) = (cpuSeconds(), stealSeconds())
    if (traced) tracedCycle() else untracedCycle()
    val wall = (System.nanoTime() - t0) / 1e9
    System.err.println(f"perfbench cycle traced=$traced wall=$wall%.3f s " +
      f"process cpu=${cpuSeconds() - cpu0}%.3f s machine steal=${stealSeconds() - steal0}%.3f s")
    (if (traced) tracedWalls else untracedWalls) += wall
  }

  private def untracedCycle(): Unit = {
    inputs = workload.inputs(spark, seed)
    val first = firstRows.isEmpty
    for ((in, i) <- inputs.zipWithIndex; m <- workload.matchers) {
      val t0 = System.nanoTime()
      val result =
        try Right(workload.cell(in, m))
        catch { case NonFatal(e) => Left(s"${m.name} on ${in.eval.name}: $e") }
      cellSeconds += (System.nanoTime() - t0) / 1e9
      result match {
        case Left(err) => record(Seq(err))
        case Right(r) =>
          refusals += ((i, m, r.refused))
          if (!r.refused) scoredCells += i
          val before = firstRows.getOrElseUpdate((i, m.name), r.rows)
          if (first) rendered ++= r.rows
          record(r.problems ++ (if (before == r.rows) Nil
            else Seq(s"${m.name} on ${in.eval.name}: rows differ between cycles of one run")))
      }
    }
  }

  private def tracedCycle(): Unit = tracer.span(s"workload:${workload.name}") {
    inputs = tracer.span("data") {
      val ins = workload.inputs(spark, seed)
      ins.foreach { in => force(in.fit.train); force(in.eval.test) }
      ins
    }
    for ((in, i) <- inputs.zipWithIndex) tracer.span(s"dataset:${in.eval.name}") {
      tracer.span("featurize") { force(FeatureGen.addFeatures(in.eval.test, in.eval.attrs)) }
      tracer.span("encode") {
        force(encodeColumns(in.eval.attrs).foldLeft(in.eval.test) { case (d, (n, c)) => d.withColumn(n, c) })
      }
      for (m <- workload.matchers) tracer.span(s"matcher:${m.name}") {
        try {
          val fitted = tracer.span(fitLayer(m)) {
            try Some(m.fit(in.fit)) catch { case _: MatcherNotScalable => None }
          }
          refusals += ((i, m, fitted.isEmpty))
          val cellProblems = fitted.toSeq.flatMap { f =>
            val scored = tracer.span("score") { val s = f.scores(in.eval.test).cache(); force(s); s }
            tracedScored += i
            try tracer.span("audit") {
              overallTotals += ((i, m, ConfusionCounts.overall(scored, 0.5).total))
              workload.audit(scored, in)
            } finally scored.unpersist()
          }
          record(cellProblems)
        } catch { case NonFatal(e) => record(Seq(s"${m.name} on ${in.eval.name}: $e")) }
      }
    }
  }

  /** Counted once, after the timed cycles (every cycle makes the same inputs). */
  private lazy val counts: Seq[Counts] = inputs.map { in =>
    val train = in.fit.train.count()
    Counts(train + in.fit.test.count(), train, in.eval.test.count())
  }

  /** Checks that need the pair counts; they fail the cells they concern. */
  private def countChecks(): Unit = {
    for ((i, m, refused) <- refusals) {
      val p = Checks.refusal(m, inputs(i).fit, counts(i).fitPairs, refused)
      if (p.nonEmpty) { failed += 1; problems ++= p }
    }
    for ((i, m, total) <- overallTotals if total != counts(i).evalTest) {
      failed += 1
      problems += s"${m.name} on ${inputs(i).eval.name}: overall confusion total $total != ${counts(i).evalTest} test pairs"
    }
    refusals.clear(); overallTotals.clear()
  }

  /** The result rows of the first untraced cycle, as the table jobs render them. */
  def rows: Seq[String] = rendered.toSeq

  def digest: String = MessageDigest.getInstance("SHA-256")
    .digest(rendered.mkString("\n").getBytes("UTF-8")).map("%02x".format(_)).mkString

  def endToEndMetrics(setupS: Double): Seq[(String, Double, String)] = {
    countChecks()
    val wall = untracedWalls.sum
    val pairs = scoredCells.map(i => counts(i).evalTest).sum.toDouble
    Seq(
      ("setup_s", setupS, "s"),
      ("wall_s", median(untracedWalls.toSeq), "s"),
      ("pairs_per_s", pairs / wall, "1/s"),
      ("cell_p50_s", median(cellSeconds.toSeq), "s"),
      ("rss_peak_mb", rssPeakMb(), "MB"),
    )
  }

  def layerMetrics(): Seq[(String, Double, String)] = {
    val (spans, work) = tracer.finish()
    countChecks()
    val n = tracedWalls.size.toDouble
    val cores = spark.sparkContext.defaultParallelism.toDouble
    val self = Tracer.selfSeconds(spans)
    def isLayer(name: String) = Layers.exists(l => name == l || name.startsWith(l + "."))
    def totals(pred: String => Boolean): (Double, Work) = {
      val w = new Work
      val picked = spans.filter(s => pred(s.name))
      picked.foreach(s => work.get(s.id).foreach(w += _))
      (picked.map(s => self(s.id)).sum, w)
    }
    // Rows each layer read per traced cycle: the splits it forced or scored.
    val testRows = inputs.indices.map(i => counts(i).evalTest).sum.toDouble
    val rows = Map(
      "data" -> inputs.indices.map(i => counts(i).fitTrain + counts(i).evalTest).sum.toDouble,
      "featurize" -> testRows,
      "encode" -> testRows,
      "fit" -> inputs.indices.map(i => counts(i).fitTrain * workload.matchers.size).sum.toDouble,
      "score" -> tracedScored.map(i => counts(i).evalTest).sum / n,
      "audit" -> tracedScored.map(i => counts(i).evalTest).sum / n,
    )
    val out = mutable.ArrayBuffer.empty[(String, Double, String)]
    for (l <- Layers) {
      val (s, w) = totals(name => name == l || name.startsWith(l + "."))
      out ++= Seq(
        (s"$l.s", s / n, "s"),
        (s"$l.jobs", w.jobs / n, "count"),
        (s"$l.stages", w.stages / n, "count"),
        (s"$l.tasks", w.tasks / n, "count"),
        (s"$l.task_s", w.runMs / 1000.0 / n, "s"),
        (s"$l.deser_s", w.deserMs / 1000.0 / n, "s"),
        (s"$l.idle_s", (s - w.runMs / 1000.0 / cores) / n, "s"),
        (s"$l.shuffle_mb", w.shuffleBytes / 1e6 / n, "MB"),
        (s"$l.rows", rows(l), "count"),
      )
    }
    for (k <- FitKinds) {
      val (s, w) = totals(_ == s"fit.$k")
      out ++= Seq((s"fit.$k.s", s / n, "s"), (s"fit.$k.stages", w.stages / n, "count"))
    }
    val (_, auditWork) = totals(_ == "audit")
    val auditedPerCycle = tracedScored.size / n
    out += (("audit.jobs_per_tau", auditWork.jobs / n / (auditedPerCycle * workload.taus.size), "count"))
    def rate(l: String) = {
      val (s, _) = totals(_ == l)
      rows(l) / (s / n)
    }
    out ++= Seq(
      ("featurize.pairs_per_s", rate("featurize"), "1/s"),
      ("encode.pairs_per_s", rate("encode"), "1/s"),
      ("score.pairs_per_s", rate("score"), "1/s"),
    )
    val (layerSeconds, layerWork) = totals(isLayer)
    val (unattributed, _) = totals(name => !isLayer(name))
    out += (("spark.stage_ms", layerSeconds * 1000 / math.max(1L, layerWork.stages), "ms"))
    val all = new Work
    work.collect { case (id, w) if id != 0 => all += w }
    for ((signal, _) <- Tracer.LogSignals) out += ((s"log.$signal", all.logs(signal) / n, "count"))
    out ++= Seq(
      ("trace.overhead_s", median(tracedWalls.toSeq.tail) - median(untracedWalls.toSeq), "s"),
      ("trace.unattributed_s", unattributed / n, "s"),
    )
    out.toSeq
  }
}

/** The result line: exactly `correct`, `attempted`, `failed` and `metrics`. */
object Json {
  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else BigDecimal(v).bigDecimal.toPlainString

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String =
    metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")
}

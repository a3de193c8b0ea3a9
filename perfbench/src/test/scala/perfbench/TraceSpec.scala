package perfbench

import org.apache.logging.log4j.LogManager
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark = SparkSession.builder
    .master("local[2]").appName("trace-spec")
    .config("spark.ui.enabled", "false")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  /** A toy pipeline of known shape: an untraced job, a shuffle job in the
    * outer span, a one-stage job and a solver warning in the inner span.
    */
  private def toyRun(runId: String): (Seq[Span], Map[Int, Work]) = {
    val sc = spark.sparkContext
    val tracer = new Tracer(sc, runId)
    sc.parallelize(1 to 10, 2).count()
    tracer.span("outer") {
      sc.parallelize(1 to 100, 4).map(x => (TraceSpec.Key(x % 3), x)).reduceByKey(_ + _, 3).collect()
      tracer.span("inner") {
        sc.parallelize(1 to 10, 2).map(_ * 2).collect()
        LogManager.getLogger("toy.solver").warn("Cholesky solver failed due to singular covariance matrix.")
        Thread.sleep(20)
      }
    }
    tracer.finish()
  }

  private def byName(spans: Seq[Span], work: Map[Int, Work]): Map[String, (Long, Long, Long)] =
    spans.map { s =>
      val w = work.getOrElse(s.id, new Work)
      s.name -> ((w.jobs, w.stages, w.tasks))
    }.toMap

  test("jobs, stages and tasks land in the innermost open span") {
    val (spans, work) = toyRun("a")
    val counts = byName(spans, work)
    assert(counts("outer") == ((1L, 2L, 7L)))
    assert(counts("inner") == ((1L, 1L, 2L)))
    assert(work(0).jobs == 1 && work(0).stages == 1 && work(0).tasks == 2)
    val inner = spans.find(_.name == "inner").get
    assert(inner.parent == spans.find(_.name == "outer").get.id)
    assert(spans.forall(_.runId == "a"))
  }

  test("log signals are attributed to the open span") {
    val (spans, work) = toyRun("b")
    val inner = spans.find(_.name == "inner").get.id
    val outer = spans.find(_.name == "outer").get.id
    assert(work(inner).logs("solver_warn") == 1)
    assert(work.get(outer).forall(_.logs("solver_warn") == 0))
  }

  test("self time is the span's duration minus its children's") {
    val (spans, _) = toyRun("c")
    val self = Tracer.selfSeconds(spans)
    val outer = spans.find(_.name == "outer").get
    val inner = spans.find(_.name == "inner").get
    assert(math.abs(self(outer.id) - (outer.seconds - inner.seconds)) < 1e-9)
    assert(self(inner.id) == inner.seconds)
    assert(inner.seconds >= 0.02)
  }

  test("self time of overlapping and nested children counts covered time once") {
    val s = Seq(
      Span(1, "root", 0, "r", 0L, 100L),
      Span(2, "a", 1, "r", 10L, 40L),
      Span(3, "b", 1, "r", 30L, 50L),
      Span(4, "leaf", 2, "r", 15L, 20L))
    val self = Tracer.selfSeconds(s)
    assert(self(1) == 60 / 1e9)
    assert(self(2) == 25 / 1e9)
    assert(self(3) == 20 / 1e9)
    assert(self(4) == 5 / 1e9)
  }

  test("counts repeat exactly across two runs") {
    val (s1, w1) = toyRun("d")
    val (s2, w2) = toyRun("e")
    assert(byName(s1, w1) == byName(s2, w2))
  }
}

object TraceSpec {
  /** A shuffle key that is not a primitive, so the shuffle stays on the
    * default Java serializer.
    */
  final case class Key(k: Int)
}

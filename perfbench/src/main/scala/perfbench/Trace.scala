package perfbench

import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.Property
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval of the benchmark. `parent` is 0 for a root span;
  * spans of one run share `runId`. Times are `System.nanoTime` readings.
  */
final case class Span(id: Int, name: String, parent: Int, runId: String, start: Long, end: Long) {
  def seconds: Double = (end - start) / 1e9
}

/** Spark work and log events attributed to one span. */
final class Work {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var runMs = 0L
  var deserMs = 0L
  var shuffleBytes = 0L
  val logs: mutable.Map[String, Long] = mutable.Map.empty.withDefaultValue(0L)

  def +=(o: Work): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks
    runMs += o.runMs; deserMs += o.deserMs; shuffleBytes += o.shuffleBytes
    o.logs.foreach { case (k, v) => logs(k) += v }
  }
}

/** Records nested spans on the driver thread and attributes Spark jobs,
  * stages and tasks to the innermost open span.
  *
  * Attribution goes through a job-local property that [[span]] sets, which
  * Spark copies into every job and stage it submits from that thread. The
  * listener events arrive asynchronously, so wall-clock overlap would be
  * wrong; the property is not. Log events are attributed to the innermost
  * open span at the time they are logged: the benchmark drives the program
  * from one thread, so only that span can cause them.
  */
final class Tracer(sc: SparkContext, val runId: String) {
  import Tracer._

  private val closed = mutable.ArrayBuffer.empty[Span]
  private var stack: List[(Int, String, Long)] = Nil
  private var nextId = 1
  @volatile private var open = 0
  private val work = new ConcurrentHashMap[Int, Work]()
  private val stageSpan = new ConcurrentHashMap[Int, Int]()

  private def workOf(span: Int): Work = work.computeIfAbsent(span, _ => new Work)

  private val listener = new SparkListener {
    private def spanOf(props: java.util.Properties): Int =
      Option(props).flatMap(p => Option(p.getProperty(SpanProperty))).map(_.toInt).getOrElse(0)

    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val w = workOf(spanOf(e.properties)); w.synchronized(w.jobs += 1)
    }
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
      val s = spanOf(e.properties)
      stageSpan.put(e.stageInfo.stageId, s)
      val w = workOf(s); w.synchronized(w.stages += 1)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val w = workOf(stageSpan.getOrDefault(e.stageId, 0))
      val m = e.taskMetrics
      w.synchronized {
        w.tasks += 1
        if (m != null) {
          w.runMs += m.executorRunTime
          w.deserMs += m.executorDeserializeTime
          w.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        }
      }
    }
  }

  private val appender = new AbstractAppender(
      s"perfbench-$runId", null, null, true, Property.EMPTY_ARRAY) {
    override def append(event: LogEvent): Unit = {
      val msg = event.getMessage.getFormattedMessage
      val thrown = Option(event.getThrown).map(_.toString).getOrElse("")
      for ((signal, patterns) <- LogSignals if patterns.exists(p => msg.contains(p) || thrown.contains(p))) {
        val w = workOf(open); w.synchronized(w.logs(signal) += 1)
      }
    }
  }

  private val logContext = LogManager.getContext(false).asInstanceOf[LoggerContext]
  sc.addSparkListener(listener)
  appender.start()
  logContext.getConfiguration.getRootLogger.addAppender(appender, Level.WARN, null)
  logContext.updateLoggers()

  /** Runs `body` inside a span named `name`, a child of the open span. */
  def span[A](name: String)(body: => A): A = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.map(_._1).getOrElse(0)
    val outer = sc.getLocalProperty(SpanProperty)
    stack = (id, name, System.nanoTime()) :: stack
    open = id
    sc.setLocalProperty(SpanProperty, id.toString)
    try body
    finally {
      val (_, _, start) = stack.head
      stack = stack.tail
      open = parent
      sc.setLocalProperty(SpanProperty, outer)
      closed += Span(id, name, parent, runId, start, System.nanoTime())
    }
  }

  /** Waits until the listener has seen every event posted so far, then
    * detaches it; returns the closed spans and the work of each span id
    * (id 0 holds what ran outside any span).
    */
  def finish(): (Seq[Span], Map[Int, Work]) = {
    require(stack.isEmpty, s"spans still open: ${stack.map(_._2).mkString(", ")}")
    org.apache.spark.PerfbenchAccess.drainListeners(sc)
    sc.removeSparkListener(listener)
    logContext.getConfiguration.getRootLogger.removeAppender(appender.getName)
    logContext.updateLoggers()
    appender.stop()
    (closed.toSeq.sortBy(_.id), work.asScala.toMap)
  }
}

object Tracer {
  val SpanProperty = "perfbench.span"

  /** Log signals that surface nowhere else: the large task payload warning
    * of parallelized driver-side rows, optimizer line-search failures, and
    * the normal-equation solver's singular-covariance fallback.
    */
  val LogSignals: Seq[(String, Seq[String])] = Seq(
    "large_task_warn" -> Seq("task of very large size"),
    "solver_warn" -> Seq("Line search failed", "Giving up", "Cholesky solver failed"),
  )

  /** Self time of each span: its duration minus the union of its children's
    * intervals (children of one parent never overlap on one thread, but the
    * union is taken anyway so that the result never goes negative).
    */
  def selfSeconds(spans: Seq[Span]): Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val covered = children.getOrElse(s.id, Nil).sortBy(_.start)
        .foldLeft((0L, Long.MinValue)) { case ((sum, reach), c) =>
          val from = math.max(c.start, reach)
          if (c.end > from) (sum + (c.end - from), c.end) else (sum, reach)
        }._1
      s.id -> (s.end - s.start - covered) / 1e9
    }.toMap
  }
}

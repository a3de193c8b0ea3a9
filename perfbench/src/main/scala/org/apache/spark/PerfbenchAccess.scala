package org.apache.spark

/** The one Spark-internal call the benchmark needs: waiting until every
  * listener has processed the events posted so far, so that counts read
  * after a run are complete.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

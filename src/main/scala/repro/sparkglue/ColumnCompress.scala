package repro.sparkglue

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.LongType
import repro.core.Codecs

/** Per-column-chunk compression inside Spark executors: each DataFrame
  * partition becomes one column chunk, encoded with the named codec, and
  * only the accounting (sizes, counts) is shuffled back — the Spark-native
  * path for the §4.5 multi-column benchmark and the sizing jobs.
  */
object ColumnCompress {

  final case class ChunkStat(nValues: Long, compressedBytes: Long, inversions: Long)

  /** Compress one column chunk-per-partition with the codec named `codecId`
    * (shipped by name, see [[Codecs.byName]]); returns
    * (total values, total compressed bytes, adjacent-inversion count).
    */
  def compressColumn(df: DataFrame, column: String, codecId: String): ChunkStat = {
    val spark = df.sparkSession
    import spark.implicits._
    val stats = df.select(col(column).cast(LongType)).as[Long]
      .mapPartitions { it =>
        val values = it.toArray
        if (values.isEmpty) Iterator.empty
        else {
          val c = Codecs.byName(codecId).compress(values)
          var inv = 0L
          var i = 1
          while (i < values.length) { if (values(i) < values(i - 1)) inv += 1; i += 1 }
          Iterator((values.length.toLong, c.sizeBytes, inv))
        }
      }
      .collect()
    ChunkStat(stats.map(_._1).sum, stats.map(_._2).sum, stats.map(_._3).sum)
  }

  /** Distinct-value count of a column (for the NDV>10% high-cardinality
    * subset of Fig 12).
    */
  def ndv(df: DataFrame, column: String): Long =
    df.select(col(column)).distinct().count()

  /** Per-table compression ratio for a codec across all (or a subset of)
    * numeric columns; raw width is 8B per value (all columns are BIGINT
    * after scaling).
    */
  def tableRatio(spark: SparkSession, df: DataFrame, columns: Seq[String],
                 codecId: String): (Double, Long, Long) = {
    val cached = df.cache()
    val stats = columns.map(c => compressColumn(cached, c, codecId))
    val raw = stats.map(_.nValues * 8L).sum
    val comp = stats.map(_.compressedBytes).sum
    (comp.toDouble / raw, comp, raw)
  }
}

package repro.lecoformat

import java.io.File
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{ByteType, IntegerType, LongType, ShortType}
import org.apache.spark.TaskContext

/** Writes a DataFrame of integer-typed columns to a `leco` table directory,
  * one part file per Spark partition — the encode runs inside executor
  * tasks, per column chunk, matching the repro target of applying LeCo
  * during columnar encode in the executors.
  */
object LecoWriter {

  /** Columns must be byte/short/int/bigint and hold no nulls: any other
    * column type is rejected before `dir` is touched, and a null fails the
    * task that meets it, so no value is ever truncated or made up.
    */
  def write(df: DataFrame, dir: String, encoding: Encoding,
            partSize: Int = 1024, zstd: Boolean = false,
            rowGroupRows: Int = 1 << 20): Unit = {
    for (f <- df.schema.fields) f.dataType match {
      case ByteType | ShortType | IntegerType | LongType =>
      case t => throw new IllegalArgumentException(
        s"column `${f.name}` has type ${t.simpleString}; leco stores only tinyint/smallint/int/bigint columns")
    }
    val out = new File(dir)
    if (out.exists()) {
      out.listFiles().foreach(_.delete())
    } else require(out.mkdirs(), s"cannot create $dir")
    val cols = df.columns.toSeq
    val longDf = df.selectExpr(cols.map(c => s"CAST(`$c` AS BIGINT) AS `$c`"): _*)
    longDf.foreachPartition { (rows: Iterator[org.apache.spark.sql.Row]) =>
      val pid = TaskContext.getPartitionId()
      val f = new File(dir, f"part-$pid%05d.leco")
      val w = new LecoFileWriter(f, cols, encoding, partSize, zstd, rowGroupRows)
      val buf = new Array[Long](cols.size)
      rows.foreach { r =>
        var c = 0
        while (c < buf.length) {
          if (r.isNullAt(c)) throw new IllegalArgumentException(s"column `${cols(c)}` holds a null; leco stores no nulls")
          buf(c) = r.getLong(c); c += 1
        }
        w.addRow(buf)
      }
      w.close()
    }
  }
}

# deep_json_smoke: hostile nesting in the two JSON inputs the tools read.
# A fault plan and a bench record that open 200000 brackets must be
# refused as parse errors with the documented exit code 2, not crash the
# recursive-descent parser with a stack overflow (exit 139).
# Invoked by ctest as
#   cmake -DBFS_TOOL=<exe> -DBENCH_DIFF=<exe> -DOUT_DIR=<scratch>
#         -P deep_json_smoke.cmake
foreach(var BFS_TOOL BENCH_DIFF OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "deep_json_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
string(REPEAT "[" 200000 deep)
file(WRITE "${OUT_DIR}/deep_plan.json" "${deep}")
file(WRITE "${OUT_DIR}/BENCH_deep.json" "{\"schema_version\":${deep}")

execute_process(
  COMMAND "${BFS_TOOL}" --scale 8 --cores 4
          "--fault-plan=${OUT_DIR}/deep_plan.json"
  RESULT_VARIABLE plan_rc
  OUTPUT_VARIABLE plan_out
  ERROR_VARIABLE plan_err)
if(NOT plan_rc STREQUAL "2" OR NOT plan_err MATCHES "nesting deeper than")
  message(FATAL_ERROR "deep_json_smoke: bfs_tool --fault-plan on a "
                      "200000-deep plan exited '${plan_rc}', want 2 with a "
                      "nesting error:\n${plan_err}")
endif()

execute_process(
  COMMAND "${BENCH_DIFF}" "${OUT_DIR}/BENCH_deep.json"
          "${OUT_DIR}/BENCH_deep.json"
  RESULT_VARIABLE diff_rc
  OUTPUT_VARIABLE diff_out
  ERROR_VARIABLE diff_err)
if(NOT diff_rc STREQUAL "2" OR NOT diff_err MATCHES "nesting deeper than")
  message(FATAL_ERROR "deep_json_smoke: bench_diff on a 200000-deep record "
                      "exited '${diff_rc}', want 2 with a nesting "
                      "error:\n${diff_err}")
endif()
message(STATUS "deep_json_smoke: deep plan and deep record refused (exit 2)")

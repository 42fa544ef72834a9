# Passed to the top-level configure as
#   -DCMAKE_PROJECT_ptgsched_INCLUDE=<this file>
# so that project(ptgsched) adds the benchmark as a subdirectory without any
# edit outside benchmark/ (see benchmark/run).
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/benchmark)
